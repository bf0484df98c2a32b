package repro

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestEveryInternalFunctionIsLinked is the reachability gate: every
// function declared in a non-test file under internal/ must be linked
// into some main package (cmd/*, examples/* or the nested cmd/mcbench
// module), or be listed in testdata/unlinked.txt with the test that
// needs it as an oracle, an input fixture or a state reader (or, in a
// short deferred section, the tests that still cover it). Inlining is
// off (-gcflags=all=-l), so a function that is only ever inlined still
// shows up as a symbol. An allowlist entry whose function is linked again
// is not an error (method retention differs between toolchains), but an
// entry whose function no longer exists is.
func TestEveryInternalFunctionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every main package; skipped under -short")
	}
	bin := t.TempDir()
	goBuild(t, ".", bin+string(filepath.Separator), "./cmd/...", "./examples/...")
	goBuild(t, filepath.Join("cmd", "mcbench"), filepath.Join(bin, "mcbench"), ".")

	linked := map[string]bool{}
	ents, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(bin, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			if name := linkedName(strings.Join(f[2:], " ")); name != "" {
				linked[name] = true
			}
		}
	}
	if len(linked) == 0 {
		t.Fatal("no repro/internal symbols in any binary; the scan is broken")
	}

	declared := declaredFuncs(t)
	allowed := readUnlinked(t)
	var missing, stale []string
	for _, fn := range declared {
		if !linked[fn] && allowed[fn] == "" {
			missing = append(missing, fn)
		}
	}
	have := map[string]bool{}
	for _, fn := range declared {
		have[fn] = true
	}
	for fn := range allowed {
		if !have[fn] {
			stale = append(stale, fn)
		}
	}
	sort.Strings(stale)
	for _, fn := range missing {
		t.Errorf("%s is linked into no binary: delete it, or list it in testdata/unlinked.txt with the test that needs it", fn)
	}
	for _, fn := range stale {
		t.Errorf("testdata/unlinked.txt lists %s, which no longer exists", fn)
	}
}

func goBuild(t *testing.T, dir, out string, pkgs ...string) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o", out}, pkgs...)...)
	cmd.Dir = dir
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %v in %s: %v\n%s", pkgs, dir, err, b)
	}
}

var (
	closureSuffix = regexp.MustCompile(`\.(func|gowrap|deferwrap)\d+.*$`)
	typeArgs      = regexp.MustCompile(`\[[^\[\]]*\]`)
)

// linkedName maps a linker symbol to the "pkg.Func" / "pkg.(*T).M" /
// "pkg.T.M" form declaredFuncs produces (pkg relative to
// repro/internal/), or "" for anything else.
func linkedName(sym string) string {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(sym, prefix) {
		return ""
	}
	sym = strings.TrimPrefix(sym, prefix)
	for strings.Contains(sym, "[") {
		next := typeArgs.ReplaceAllString(sym, "")
		if next == sym {
			break
		}
		sym = next
	}
	sym = strings.TrimSuffix(sym, "-fm")
	return closureSuffix.ReplaceAllString(sym, "")
}

// declaredFuncs lists every function and method declared in a non-test
// file under internal/, except init.
func declaredFuncs(t *testing.T) []string {
	t.Helper()
	var out []string
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(strings.TrimPrefix(filepath.Dir(path), "internal"+string(filepath.Separator)))
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || (fd.Recv == nil && fd.Name.Name == "init") {
				continue
			}
			out = append(out, pkg+"."+recvPrefix(fd)+fd.Name.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// recvPrefix renders a method's receiver the way the linker names it:
// "(*T)." for a pointer receiver, "T." for a value one, with any type
// parameters dropped.
func recvPrefix(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	typ := fd.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	name := typ.(*ast.Ident).Name
	if star {
		return "(*" + name + ")."
	}
	return name + "."
}

// readUnlinked parses testdata/unlinked.txt: one "symbol reason..." per
// line, '#' comments and blank lines ignored. Every entry must give a
// reason.
func readUnlinked(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "unlinked.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			t.Errorf("testdata/unlinked.txt:%d: %s has no reason", n, sym)
			continue
		}
		if _, dup := out[sym]; dup {
			t.Errorf("testdata/unlinked.txt:%d: %s listed twice", n, sym)
		}
		out[sym] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
