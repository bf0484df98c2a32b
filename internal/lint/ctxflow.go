package lint

import (
	"go/ast"
)

// ctxflow enforces the cancellation contract from PR 4: every campaign
// started anywhere in the library must be abortable from the outside.
// Two rules:
//
//  1. context.Background() / context.TODO() are reserved for package
//     main (and tests, which the loader never sees). A library helper
//     that mints its own root context detaches the work under it from
//     the caller's cancellation — an mcserved job using that helper
//     could never be cancelled mid-flight.
//  2. An exported function that fans work out through the campaign
//     engine (campaign.Collect / Reduce / ReduceScratch / ReduceSpan /
//     ReduceSpanScratch) must accept a context.Context
//     parameter, so cancellation reaches every trial. The span variants
//     matter most: they are the fabric's worker path, and a lease
//     revocation can only stop a shard if the worker's context reaches
//     the span reduction.
type ctxflow struct{}

func (ctxflow) Name() string { return "ctxflow" }
func (ctxflow) Doc() string {
	return "no context.Background()/TODO() outside main; campaign entry points take ctx"
}

// campaignFanout names the engine entry points whose callers must hold
// a context.
var campaignFanout = map[string]bool{
	"Collect": true, "Reduce": true, "ReduceScratch": true,
	"ReduceSpan": true, "ReduceSpanScratch": true,
}

func (c ctxflow) Check(p *Package) []Finding {
	if p.Types.Name() == "main" {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if path, name, ok := qualifiedCall(p, call); ok && path == "context" && (name == "Background" || name == "TODO") {
				out = append(out, p.finding(c.Name(), call.Pos(),
					"context.%s() in library code detaches campaigns from caller cancellation; accept and propagate a ctx parameter", name))
			}
			return true
		})
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			if c.hasCtxParam(p, fn) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if _, isLit := n.(*ast.FuncLit); isLit {
					return false // nested closures judged at their capture site
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				path, name := calleePkgPath(p, call)
				if pathHasSuffix(path, "internal/campaign") && campaignFanout[name] {
					out = append(out, p.finding(c.Name(), fn.Name.Pos(),
						"exported %s fans out through campaign.%s but has no context.Context parameter; cancellation cannot reach the trials", fn.Name.Name, name))
					return false
				}
				return true
			})
		}
	}
	return out
}

// hasCtxParam reports whether the function declares a context.Context
// parameter.
func (ctxflow) hasCtxParam(p *Package, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		if isContextType(p.Info.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}
