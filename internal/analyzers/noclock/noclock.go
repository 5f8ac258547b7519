// Package noclock forbids wall-clock reads in deterministic packages.
//
// WAL replay must be bit-exact: recovery rebuilds a summary by
// replaying the logged batches through the same code that served
// ingest, so any state transition that consults the wall clock
// diverges between the original run and the replay. The summary core
// (internal/core), the geometry prefilter (internal/convex), the
// fixed-direction variant (internal/fixeddir), the window bucketing
// (internal/window), WAL recovery (internal/wal recover paths), the
// store's rebuild body (internal/store recover paths) and the fan-in
// delta codec (internal/fanin delta paths) therefore must
// not touch time.Now and friends directly — time enters only through
// an injectable clock (see window.Config.Now for the pattern).
//
// The analyzer flags any reference — call or function value — to the
// clock-reading identifiers of package time within those scopes.
// Sanctioned uses (the one default `cfg.Now = time.Now` wiring) carry
// a //lint:allow noclock directive with a justification.
package noclock

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"

	"github.com/streamgeom/streamhull/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "noclock",
	Doc:  "forbid wall-clock reads (time.Now etc.) in deterministic, replay-critical packages",
	Run:  run,
}

// deterministicPkgs maps a package-path suffix to the file basenames
// the rule covers in it; nil means every file. Fixture packages match
// by the same suffixes.
var deterministicPkgs = map[string][]string{
	"internal/core":     nil,
	"internal/convex":   nil,
	"internal/fixeddir": nil,
	"internal/window":   nil,
	"internal/wal":      {"recover.go"},
	"internal/store":    {"recover.go"},
	"internal/fanin":    {"delta.go"},
}

// clockFuncs are the package time identifiers that read the wall
// clock (or schedule against it).
var clockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"AfterFunc": true,
}

func run(pass *analysis.Pass) error {
	var scoped []string // nil-able file filter; set when the package is in scope
	inScope := false
	for suffix, files := range deterministicPkgs {
		if pass.PathSuffix(suffix) {
			inScope = true
			scoped = files
			break
		}
	}
	if !inScope {
		return nil
	}
	fileOK := func(name string) bool {
		if scoped == nil {
			return true
		}
		base := filepath.Base(name)
		for _, f := range scoped {
			if base == f {
				return true
			}
		}
		return false
	}
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") || !fileOK(name) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			if _, isFunc := obj.(*types.Func); !isFunc {
				return true
			}
			if !clockFuncs[sel.Sel.Name] {
				return true
			}
			pass.Reportf(sel.Pos(),
				"time.%s in deterministic package %s: replay must be bit-exact; thread an injectable clock instead (see window.Config.Now)",
				sel.Sel.Name, pass.Pkg.Name())
			return true
		})
	}
	return nil
}
