package trustedcells

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// callerAllowlist names the exported declarations kept without a caller in a
// program, each with the reason it stays. Keys are the declaration's package
// path below the module (the facade is "trustedcells"), then its name, then
// a method's name: "cloud.Faulty.SetFlap".
var callerAllowlist = map[string]string{
	// Fault hooks the cloud, sync and replication tests drive.
	"cloud.Faulty.SetFlap":         "fault hook: the flap schedule of the faulty and replicated-member tests",
	"cloud.Faulty.SetMask":         "fault hook: the partition masks of the faulty, replicated and sync corruption tests",
	"cloud.Faulty.SetCorrupt":      "fault hook: the bit-flipping member of the faulty and sync corruption tests",
	"cloud.Faulty.Down":            "fault hook: reads back the outage switch in the faulty tests",
	"cloud.Replicated.SwapMember":  "fault hook: swaps a member for a Byzantine one in the replicated and quarantine tests",
	"cloud.Replicated.MemberDown":  "fault hook: kills a member in the replicated and framed-member tests",
	"cloud.Adversary.Observations": "fault hook: what the curious provider saw, read by the cloud tests",
	"sync.Replica.Delete":          "test hook: the only writer of a tombstone, so the only way the core and sync tests reach the remote-deletion fold; no cell operation deletes a document yet",
	"tamper.TEE.Lock":              "test hook: drives the locked-TEE refusals in the core, sync, commons and cloud tests",
	"tamper.TEE.Profile":           "test hook: core's recovery test reads the hardware class a recovered cell runs on",
	"ucon.Monitor.UseCount":        "test hook: core's usage-control tests check that a failed read counts no use",
	"ucon.Monitor.ActiveSessions":  "test hook: core's usage-control tests check that a failed read leaves no session open",
	"core.RecoverCell":             "social key recovery, kept for ROADMAP item 24, which gives it a caller",
	"core.IssueRecoveryShares":     "social key recovery, kept for ROADMAP item 24, which gives it a caller",
	"crypto.NewMerkleTree":         "reference: the tree that MerkleRootOf and MerkleHashTree are tested against",
	"crypto.MerkleTree.Root":       "reference: the root of the oracle tree",
	"crypto.MerkleRootOf":          "reference: the one-shot root the incremental MerkleHashTree and sync's shard-root oracle are tested against",
}

// TestExportedNamesHaveCallers holds the API to what programs use: every
// exported name declared in internal/ or in the facade must be used by
// non-test code somewhere other than its own declaration, unless
// callerAllowlist names it. Callers of an internal name are any non-test
// file of the repository, bench/ included; callers of a facade name are
// examples/, cmd/ and example_test.go, plus the signature of a facade
// function that has such a caller. A method whose name an interface of the
// module declares, or Error or String, counts as used, since an interface
// value may call it. Names resolve through go/types, so a method counts by
// its receiver's type and not only by its name.
func TestExportedNamesHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository")
	}
	l := loadRepo(t)
	unused := l.unusedExported()
	for _, key := range unused {
		if _, ok := callerAllowlist[key]; !ok {
			t.Errorf("%s is exported but nothing outside its declaration uses it: delete it, give it a caller, or allowlist it with a reason", key)
		}
	}
	listed := make(map[string]bool, len(unused))
	for _, key := range unused {
		listed[key] = true
	}
	for key, reason := range callerAllowlist {
		if reason == "" {
			t.Errorf("allowlist entry %s carries no reason", key)
		}
		if !listed[key] {
			t.Errorf("allowlist entry %s names no declaration without a caller: drop the entry", key)
		}
	}
}

// repoPackage is one directory of non-test Go files.
type repoPackage struct {
	path  string // import path
	files []*ast.File
	pkg   *types.Package
}

type repoLoader struct {
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*repoPackage
	order []*repoPackage
	// ifaceMethods are the method names that interface types of the
	// repository declare.
	ifaceMethods map[string]bool
}

const modulePath = "trustedcells"

// loadRepo parses and type-checks every non-test package of the repository,
// bench/ and the examples included, plus example_test.go.
func loadRepo(t *testing.T) *repoLoader {
	l := &repoLoader{
		fset: token.NewFileSet(),
		info: &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		},
		pkgs: make(map[string]*repoPackage),
		ifaceMethods: map[string]bool{
			"Error":  true, // error
			"String": true, // fmt.Stringer
			"Unwrap": true, // errors.Is and errors.As
		},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || (strings.HasSuffix(name, "_test.go") && path != "example_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(l.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ipath := modulePath
		if dir != "." {
			ipath += "/" + filepath.ToSlash(dir)
		}
		if path == "example_test.go" {
			ipath = modulePath + "_test"
		}
		p := l.pkgs[ipath]
		if p == nil {
			p = &repoPackage{path: ipath}
			l.pkgs[ipath] = p
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		t.Fatalf("walk: %v", err)
	}
	paths := make([]string, 0, len(l.pkgs))
	for path := range l.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
		for _, f := range l.pkgs[path].files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					iface := l.info.Types[it].Type.(*types.Interface)
					for i := 0; i < iface.NumMethods(); i++ {
						l.ifaceMethods[iface.Method(i).Name()] = true
					}
				}
				return true
			})
		}
	}
	return l
}

// Import type-checks a repository package on first use and defers every
// other path to the standard library's source importer.
func (l *repoLoader) Import(path string) (*types.Package, error) {
	p, ok := l.pkgs[path]
	if !ok {
		return l.std.Import(path)
	}
	if p.pkg == nil {
		conf := types.Config{Importer: l}
		pkg, err := conf.Check(path, l.fset, p.files, l.info)
		if err != nil {
			return nil, err
		}
		p.pkg = pkg
		l.order = append(l.order, p)
	}
	return p.pkg, nil
}

// declaration is one exported name under the check.
type declaration struct {
	key    string
	facade bool
	node   ast.Node // the whole declaration; uses inside it do not count
	result ast.Node // a facade function's signature
}

// unusedExported returns the keys of the checked declarations that nothing
// allowed to call them uses, sorted.
func (l *repoLoader) unusedExported() []string {
	decls := make(map[types.Object]*declaration)
	receivers := make(map[*ast.Ident]bool)
	for _, p := range l.order {
		var short string
		switch {
		case p.path == modulePath:
			short = modulePath
		case strings.HasPrefix(p.path, modulePath+"/internal/"):
			short = strings.TrimPrefix(p.path, modulePath+"/internal/")
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receivers[id] = true
							}
							return true
						})
					}
					if short == "" || !d.Name.IsExported() {
						continue
					}
					key := short + "." + d.Name.Name
					if d.Recv != nil {
						if l.ifaceMethods[d.Name.Name] {
							continue
						}
						key = short + "." + receiverName(d.Recv.List[0].Type) + "." + d.Name.Name
					}
					decls[l.info.Defs[d.Name]] = &declaration{key: key, facade: short == modulePath, node: d, result: d.Type}
				case *ast.GenDecl:
					if short == "" {
						continue
					}
					for _, spec := range d.Specs {
						var names []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, name := range names {
							if name.IsExported() {
								decls[l.info.Defs[name]] = &declaration{key: short + "." + name.Name, facade: short == modulePath, node: spec}
							}
						}
					}
				}
			}
		}
	}

	used := make(map[types.Object]bool)
	var facadeUses []*ast.Ident
	for id, obj := range l.info.Uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		d := decls[obj]
		if d == nil || used[obj] || receivers[id] || (id.Pos() >= d.node.Pos() && id.Pos() < d.node.End()) {
			continue
		}
		if d.facade {
			facadeUses = append(facadeUses, id)
			continue
		}
		used[obj] = true
	}
	// A facade name counts when a program uses it, or when the signature
	// of a facade function a program uses names it.
	for _, id := range facadeUses {
		file := filepath.ToSlash(l.fset.Position(id.Pos()).Filename)
		if strings.HasPrefix(file, "examples/") || strings.HasPrefix(file, "cmd/") || file == "example_test.go" {
			used[l.info.Uses[id]] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for obj, d := range decls {
			if !d.facade || !used[obj] || d.result == nil {
				continue
			}
			ast.Inspect(d.result, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if o := l.info.Uses[id]; o != nil && decls[o] != nil && !used[o] {
						used[o], changed = true, true
					}
				}
				return true
			})
		}
	}

	var unused []string
	for obj, d := range decls {
		if !used[obj] {
			unused = append(unused, d.key)
		}
	}
	sort.Strings(unused)
	return unused
}

// receiverName is the type name of a method receiver expression.
func receiverName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
