// Package errdrop flags dropped errors from the NVMe and trace write
// paths. An nvme.Array PutClass that fails silently corrupts the offload
// state the engine later reads back with ReadIntoClass, and a
// trace.WriteChrome whose error is ignored produces a truncated file that
// Perfetto rejects — both have bitten before, so calls into those packages
// must consume the returned error in non-test code.
package errdrop

import (
	"go/ast"
	"go/types"
	"strings"

	"ratel/internal/analysis"
)

// watchedPkgs are the import paths whose error returns must be handled.
var watchedPkgs = []string{
	"ratel/internal/nvme",
	"ratel/internal/trace",
}

// Analyzer is the errdrop check.
var Analyzer = &analysis.Analyzer{
	Name: "errdrop",
	Doc: `errors from NVMe and trace write paths must not be dropped

Flags statement-position calls, defers, and blank-assigned results where a
function declared in ratel/internal/nvme or ratel/internal/trace returns an
error that is discarded. Test files are exempt: tests drop errors on
purpose when exercising failure paths.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDropped(pass, call, "call")
				}
			case *ast.DeferStmt:
				checkDropped(pass, n.Call, "deferred call")
			case *ast.GoStmt:
				checkDropped(pass, n.Call, "go statement")
			case *ast.AssignStmt:
				checkBlankAssign(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkDropped reports a call whose entire result list — including an
// error — is discarded by statement position.
func checkDropped(pass *analysis.Pass, call *ast.CallExpr, how string) {
	fn, errAt := watchedErrCall(pass, call)
	if fn == nil || errAt < 0 {
		return
	}
	pass.Reportf(call.Pos(), "%s drops the error returned by %s.%s: a silent NVMe/trace write failure corrupts downstream state, so check or log it", how, shortPkg(fn), fn.Name())
}

// checkBlankAssign reports x, _ := nvme.Open(...)-style drops where every
// LHS slot receiving the error component is the blank identifier.
func checkBlankAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || len(as.Lhs) == 0 {
		return
	}
	fn, errAt := watchedErrCall(pass, call)
	if fn == nil || errAt < 0 || errAt >= len(as.Lhs) {
		return
	}
	if id, ok := as.Lhs[errAt].(*ast.Ident); ok && id.Name == "_" {
		pass.Reportf(as.Pos(), "error returned by %s.%s assigned to blank identifier: a silent NVMe/trace write failure corrupts downstream state, so check or log it", shortPkg(fn), fn.Name())
	}
}

// watchedErrCall resolves call's callee; if it is declared in a watched
// package and returns an error, it and the error's result index are
// returned. Otherwise (nil, -1).
func watchedErrCall(pass *analysis.Pass, call *ast.CallExpr) (*types.Func, int) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return nil, -1
	}
	path := analysis.FuncPkgPath(fn)
	watched := false
	for _, p := range watchedPkgs {
		if path == p || strings.HasPrefix(path, p+"/") {
			watched = true
			break
		}
	}
	if !watched {
		return nil, -1
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, -1
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
			return fn, i
		}
	}
	return nil, -1
}

func shortPkg(fn *types.Func) string {
	path := analysis.FuncPkgPath(fn)
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
