package lint

// Small AST/type helpers shared by the analyzers. Everything here is
// best-effort on partial type information: when the type-checker could not
// resolve a name, the helpers return false and the analyzers stay silent
// rather than guessing (a lint gate must not produce false positives on
// code that compiles).

import (
	"go/ast"
	"go/types"
)

// walkStack traverses the AST in source order, calling fn with each node
// and the stack of its ancestors (outermost first, not including n). If fn
// returns false, n's children are skipped.
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			// Children are skipped, but Inspect still sends the nil pop for
			// n only if we return true; keep the stack consistent by not
			// pushing skipped nodes.
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// pkgFuncCall reports whether call invokes the package-level function
// pkgPath.name, resolving the selector through the type info (so renamed
// imports are handled and same-named local identifiers are not).
func pkgFuncCall(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return "", false
	}
	for _, n := range names {
		if sel.Sel.Name == n {
			return n, true
		}
	}
	return "", false
}

// methodCallOn reports whether call is a method invocation named one of
// names on a receiver whose (possibly pointered) named type lives in
// pkgPath with type name typeName.
func methodCallOn(info *types.Info, call *ast.CallExpr, pkgPath, typeName string, names ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	match := false
	for _, n := range names {
		if sel.Sel.Name == n {
			match = true
			break
		}
	}
	if !match {
		return "", false
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return "", false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Name() != typeName || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// objectOf returns the object an identifier denotes (definition or use).
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// usesObject reports whether any identifier inside n denotes obj.
func usesObject(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		if id, ok := c.(*ast.Ident); ok && objectOf(info, id) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}
