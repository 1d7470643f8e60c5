package core_test

import (
	"semicont/internal/audit"
	"semicont/internal/core"
)

// The in-package tests run their engines under the real auditor, which
// they cannot import themselves: internal/audit imports core.
func init() {
	core.NewTestAuditor = func() core.AuditTap { return audit.New() }
}
