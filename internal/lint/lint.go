// Package lint is the repository's static-analysis suite: a stdlib-only
// driver (go list -json for the package graph, go/parser + go/types for
// typed ASTs — no golang.org/x/tools) running repo-specific analyzers
// that enforce the engine's core contracts at the source level:
//
//   - detrand:  determinism — no wall clock or global randomness in the
//     campaign/core/monitor/ndf packages or in worker/fold closures;
//     every per-trial stream must derive from rng.NewSub(seed, index).
//   - maporder: no unordered map iteration feeding accumulators,
//     signatures, or serialized output — collect keys and sort, or
//     justify the loop with a //mclint:maporder directive.
//   - ctxflow:  cancellation — no context.Background()/TODO() outside
//     package main, and exported entry points that fan out through
//     campaign.Collect/Reduce must accept a context.Context.
//   - hotalloc: functions marked //mclint:hotpath (the Classify/
//     Capture/fold loops pinned by AllocsPerRun) may not allocate:
//     no fmt calls, no escaping composite literals, no make/new, no
//     capacity-growing append.
//   - errdrop:  no silently discarded error returns in non-test code.
//
// The bit-identical signature-test method only works because every
// campaign is reproducible at any worker count; these analyzers catch
// the source patterns that silently break that invariant long before a
// long-running regression test would.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer report, position-resolved and JSON-ready for
// mclint -json.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Package is one type-checked package under analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// directives maps file name -> line -> directives on that line
	// (either a full-line comment or a trailing comment).
	directives map[string]map[int][]directive
}

// directive is one parsed //mclint:<name> [justification] comment.
type directive struct {
	name   string
	reason string
	pos    token.Position
}

// Analyzer is one source-contract check.
type Analyzer interface {
	Name() string
	Doc() string
	Check(p *Package) []Finding
}

// Analyzers returns the full suite in report order.
func Analyzers() []Analyzer {
	return []Analyzer{detrand{}, maporder{}, ctxflow{}, hotalloc{}, errdrop{}}
}

// Run executes the analyzers over the packages, drops findings carrying
// a justified //mclint:<analyzer> directive on their own or preceding
// line, audits the directives themselves (a suppression without a
// justification, or with an unknown analyzer name, is a finding), and
// returns the remainder sorted by position.
func Run(pkgs []*Package, analyzers []Analyzer) []Finding {
	known := map[string]bool{"hotpath": true}
	for _, a := range analyzers {
		known[a.Name()] = true
	}
	var out []Finding
	seen := map[Finding]bool{}
	for _, p := range pkgs {
		for _, a := range analyzers {
			for _, f := range a.Check(p) {
				if p.suppressed(a.Name(), f) || seen[f] {
					continue
				}
				seen[f] = true
				out = append(out, f)
			}
		}
		// Audit the escape hatches: every suppression must name a real
		// analyzer and carry a justification, so `grep mclint:` reads as
		// a reviewed list of known exceptions, not a mute button.
		for _, d := range p.allDirectives() {
			switch {
			case !known[d.name]:
				out = append(out, Finding{
					Analyzer: "directive", File: d.pos.Filename, Line: d.pos.Line, Col: d.pos.Column,
					Message: fmt.Sprintf("unknown directive //mclint:%s", d.name),
				})
			case d.name != "hotpath" && strings.TrimSpace(d.reason) == "":
				out = append(out, Finding{
					Analyzer: "directive", File: d.pos.Filename, Line: d.pos.Line, Col: d.pos.Column,
					Message: fmt.Sprintf("//mclint:%s needs a justification (why is this occurrence safe?)", d.name),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// finding builds a position-resolved Finding for a node.
func (p *Package) finding(analyzer string, pos token.Pos, format string, args ...any) Finding {
	at := p.Fset.Position(pos)
	return Finding{
		Analyzer: analyzer,
		File:     at.Filename,
		Line:     at.Line,
		Col:      at.Column,
		Message:  fmt.Sprintf(format, args...),
	}
}

// suppressed reports whether a justified //mclint:<analyzer> directive
// covers the finding's line (same line or the line directly above).
func (p *Package) suppressed(analyzer string, f Finding) bool {
	lines := p.directives[f.File]
	for _, line := range []int{f.Line, f.Line - 1} {
		for _, d := range lines[line] {
			if d.name == analyzer && strings.TrimSpace(d.reason) != "" {
				return true
			}
		}
	}
	return false
}

// allDirectives returns every directive in the package in position
// order — the deterministic traversal of the per-file line maps that
// maporder itself demands of map-keyed state feeding output.
func (p *Package) allDirectives() []directive {
	var out []directive
	for _, byLine := range p.directives { //mclint:maporder result is position-sorted below before it feeds any output
		for _, ds := range byLine {
			out = append(out, ds...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out
}

// scanDirectives indexes every //mclint: comment in the package files.
func (p *Package) scanDirectives() {
	p.directives = map[string]map[int][]directive{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				byLine := p.directives[pos.Filename]
				if byLine == nil {
					byLine = map[int][]directive{}
					p.directives[pos.Filename] = byLine
				}
				d.pos = pos
				byLine[pos.Line] = append(byLine[pos.Line], d)
			}
		}
	}
}

// parseDirective recognises "//mclint:<name> [justification]".
func parseDirective(c *ast.Comment) (directive, bool) {
	text, ok := strings.CutPrefix(c.Text, "//mclint:")
	if !ok {
		return directive{}, false
	}
	name, reason, _ := strings.Cut(text, " ")
	name = strings.TrimSpace(name)
	if name == "" {
		return directive{}, false
	}
	return directive{name: name, reason: reason}, true
}

// hasDirective reports whether a declaration's doc comment carries the
// named directive (used for //mclint:hotpath markers).
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if d, ok := parseDirective(c); ok && d.name == name {
			return true
		}
	}
	return false
}

// pathHasSuffix reports whether an import path ends in the given
// slash-separated suffix (so "repro/internal/core" and the fixture
// module's "fixture/internal/core" both match "internal/core").
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// qualifiedCall resolves a call of the form pkg.Fn where pkg is an
// imported package name, returning the package path and function name.
func qualifiedCall(p *Package, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	return qualifiedSelector(p, sel)
}

// qualifiedSelector resolves pkg.Name selectors (package-level funcs,
// vars, and types referenced through an import).
func qualifiedSelector(p *Package, sel *ast.SelectorExpr) (pkgPath, name string, ok bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// calleePkgPath returns the defining package path of a call's callee
// (function or method), or "" when unresolvable (builtins, func values).
func calleePkgPath(p *Package, call *ast.CallExpr) (path, name string) {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = p.Info.Uses[fun.Sel]
	case *ast.Ident:
		obj = p.Info.Uses[fun]
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := fun.X.(*ast.Ident); ok {
			obj = p.Info.Uses[id]
		} else if s, ok := fun.X.(*ast.SelectorExpr); ok {
			obj = p.Info.Uses[s.Sel]
		}
	}
	if obj == nil || obj.Pkg() == nil {
		return "", ""
	}
	return obj.Pkg().Path(), obj.Name()
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// returnsError reports whether the call's result tuple contains error.
func returnsError(p *Package, call *ast.CallExpr) bool {
	t := p.Info.TypeOf(call)
	if t == nil {
		return false
	}
	errType := types.Universe.Lookup("error").Type()
	switch rt := t.(type) {
	case *types.Tuple:
		for i := 0; i < rt.Len(); i++ {
			if types.Identical(rt.At(i).Type(), errType) {
				return true
			}
		}
		return false
	default:
		return types.Identical(rt, errType)
	}
}
