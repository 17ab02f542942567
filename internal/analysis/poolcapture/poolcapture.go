// Package poolcapture guards the worker-pool contract: chunks submitted to
// pool.Run / pool.For / pool.ForWork (and the Kernel forms, ForKernel /
// ForWorkKernel, when given a func literal) may execute concurrently and in
// any order, so the closure must only write through disjoint per-chunk slots
// (out[i] = ...). A closure that assigns a captured outer variable directly
// is a data race and, even when "benign", makes kernel results depend on
// chunk interleaving — breaking the bit-identical-at-any-thread-count
// guarantee the tensor kernels are tested for.
package poolcapture

import (
	"go/ast"
	"go/token"
	"go/types"

	"ratel/internal/analysis"
)

const poolPkg = "ratel/internal/tensor/pool"

// submitFuncs are the pool entry points whose final argument is the
// parallel body (package functions and *Pool methods share names).
var submitFuncs = map[string]bool{"Run": true, "For": true, "ForWork": true, "ForKernel": true, "ForWorkKernel": true}

// Analyzer is the poolcapture check.
var Analyzer = &analysis.Analyzer{
	Name: "poolcapture",
	Doc: `closures submitted to the worker pool must not write captured variables

Flags assignments (including +=, ++, and x = append(x, ...)) whose target
is a bare variable declared outside the closure passed to pool.Run /
pool.For / pool.ForWork / pool.ForKernel / pool.ForWorkKernel. Chunks run concurrently: write through disjoint
index expressions (out[i] = v) and reduce after the loop, or use atomics.
Reads of captured variables and writes through index/field expressions are
allowed.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !analysis.IsPkgCall(pass.TypesInfo, call, poolPkg) {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if !submitFuncs[fn.Name()] || len(call.Args) == 0 {
				return true
			}
			lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
			if !ok {
				return true
			}
			checkBody(pass, fn.Name(), lit)
			return true
		})
	}
	return nil
}

func checkBody(pass *analysis.Pass, entry string, lit *ast.FuncLit) {
	report := func(pos token.Pos, name string) {
		pass.Reportf(pos, "closure passed to pool.%s writes captured variable %q: chunks run concurrently, so write disjoint per-chunk slots and reduce afterwards", entry, name)
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if v, id := capturedTarget(pass, lit, lhs); v != nil {
					report(n.Pos(), id)
				}
			}
		case *ast.IncDecStmt:
			if v, id := capturedTarget(pass, lit, n.X); v != nil {
				report(n.Pos(), id)
			}
		}
		return true
	})
}

// capturedTarget resolves lhs to a bare identifier naming a variable
// declared outside the closure. Index and field stores are the sanctioned
// disjoint-shard idiom and return nil.
func capturedTarget(pass *analysis.Pass, lit *ast.FuncLit, lhs ast.Expr) (*types.Var, string) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil, ""
	}
	v := analysis.UsedVar(pass.TypesInfo, id)
	if v == nil {
		return nil, ""
	}
	if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
		return nil, "" // declared inside the closure
	}
	return v, id.Name
}
