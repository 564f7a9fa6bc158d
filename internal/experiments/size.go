package experiments

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// Statement counting behind Table 3-1. The paper counted semicolons in C++
// source as a statement proxy; the Go analog counts AST statements plus
// declarations.

// repoRoot locates the repository source tree from this file's position.
func repoRoot() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "."
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// CountStatements parses the named Go files, and the non-test Go files
// of the named package directories, and counts their statements: every
// ast.Stmt except plain blocks, plus one per declaration — the closest
// analog to the paper's semicolon metric.
func CountStatements(paths []string) (int, error) {
	fset := token.NewFileSet()
	total := 0
	for _, path := range paths {
		files := []string{path}
		if fi, err := os.Stat(path); err == nil && fi.IsDir() {
			files, _ = filepath.Glob(filepath.Join(path, "*.go")) // fails only on a bad pattern
			files = slices.DeleteFunc(files, isTestFile)
		}
		for _, f := range files {
			parsed, err := parser.ParseFile(fset, f, nil, 0)
			if err != nil {
				return 0, fmt.Errorf("experiments: parse %s: %w", f, err)
			}
			ast.Inspect(parsed, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.BlockStmt:
					// A block is punctuation, not a statement.
				case ast.Stmt:
					total++
				case *ast.FuncDecl, *ast.GenDecl:
					total++
				}
				return true
			})
		}
	}
	return total, nil
}

func isTestFile(path string) bool { return strings.HasSuffix(path, "_test.go") }

// Toolkit layer groupings, mirroring the paper's accounting:
// "the symbolic system call and lower levels" vs the descriptor, open
// object, pathname and directory levels used by the union agent.

func corePath(names ...string) []string {
	dir := filepath.Join(repoRoot(), "internal", "core")
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = filepath.Join(dir, n)
	}
	return out
}

// SymbolicLevelFiles are the symbolic system call layer and everything
// below it.
func SymbolicLevelFiles() []string {
	return corePath("doc.go", "boilerplate.go", "numeric.go", "symbolic.go", "defaults.go", "exec.go")
}

// ObjectLevelFiles are the additional descriptor, open object, pathname
// and directory layers.
func ObjectLevelFiles() []string {
	return corePath("descriptor.go", "openobj.go", "pathname.go", "directory.go", "downutil.go")
}

// count returns a row round counting the statements of paths.
func count(paths ...string) func() (float64, error) {
	return func() (float64, error) {
		n, err := CountStatements(paths)
		return float64(n), err
	}
}

// table31 is the agent-size table: for each agent, the statements of the
// toolkit layers it uses, of its own package, and their sum.
func table31() *Table {
	t := &Table{Name: "3-1", Title: "Table 3-1: Sizes of agents, measured in Go statements"}
	symbolic := SymbolicLevelFiles()
	for _, a := range []struct {
		name    string
		toolkit []string
	}{
		{"timex", symbolic},
		{"trace", symbolic},
		{"union", append(ObjectLevelFiles(), symbolic...)},
	} {
		own := filepath.Join(repoRoot(), "internal", "agents", a.name)
		t.Rows = append(t.Rows,
			Row{Name: a.name + "/toolkit", Unit: Count, Measure: count(a.toolkit...)},
			Row{Name: a.name + "/agent", Unit: Count, Measure: count(own)},
			Row{Name: a.name + "/total", Unit: Count, Measure: count(append([]string{own}, a.toolkit...)...)})
	}
	return t
}

// kernelTraceStatements is the size of the kernel-based tracing
// implementation (the paper's "1627 vs 1584 statements" observation): the
// tracer plumbing (tracer.go) plus every hook call site scattered through
// the kernel's system call implementations — the analog of the
// original's "modification of 26 kernel files ... under conditional
// compilation switches".
func kernelTraceStatements() (float64, error) {
	n, err := CountStatements([]string{filepath.Join(repoRoot(), "internal", "kernel", "tracer.go")})
	if err != nil {
		return 0, err
	}
	hooks, err := CountKernelTraceHooks()
	return float64(n + hooks), err
}

// CountKernelTraceHooks counts the k.trace(...) hook call sites inserted
// into the kernel's system call implementations.
func CountKernelTraceHooks() (int, error) {
	matches, err := filepath.Glob(filepath.Join(repoRoot(), "internal", "kernel", "*.go"))
	if err != nil {
		return 0, err
	}
	fset := token.NewFileSet()
	hooks := 0
	for _, m := range matches {
		if isTestFile(m) || filepath.Base(m) == "tracer.go" {
			continue
		}
		parsed, err := parser.ParseFile(fset, m, nil, 0)
		if err != nil {
			return 0, err
		}
		ast.Inspect(parsed, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if ok && sel.Sel.Name == "trace" {
				hooks++
			}
			return true
		})
	}
	return hooks, nil
}
