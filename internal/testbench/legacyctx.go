package testbench

import "context"

// legacyCtx is the single audited root context behind the one ctx-less
// entry point left, CalibrateMultiParam: it predates the Campaign API's
// cancellation plumbing and runs to completion by design. New library
// code must accept a caller context and pass it to Run directly —
// mclint's ctxflow analyzer flags any other context.Background() in the
// library, so this helper is the one place the exception lives.
func legacyCtx() context.Context {
	return context.Background() //mclint:ctxflow single audited root for the ctx-less CalibrateMultiParam; new code accepts a caller ctx
}
