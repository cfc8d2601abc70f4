package cyclosa

// API lint, run as part of the normal test suite (and as an explicit CI
// step): an identifier in internal/ that no program file uses is deleted,
// not kept "in case". Tests do not count as users; a test seam that must
// stay is named in apiLintAllow together with the test that needs it.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// apiLintAllow exempts declarations that only tests use. The key is
// "<package dir>.<Name>" or "<package dir>.<Type>.<Method>"; the value names
// the test that needs it.
var apiLintAllow = map[string]string{
	"internal/enclave.IAS.Revoke":                  "TestHandshakeQuotesOnceAndHonoursRevocation",
	"internal/enclave.IAS.Verifications":           "TestVerifierChecksEachQuoteSignatureOnce",
	"internal/simnet.AccountingChaos":              "TestAccountingChaosConverges (CI's accounting soak)",
	"internal/transport.NewOwnershipChecker":       "TestOwnershipCheckerCatchesPayloadAliasing",
	"internal/core.Node.TableLen":                  "TestNetworkConstruction",
	"internal/core.Node.SealTable":                 "TestSealRestoreTable (a daemon restart is to call it)",
	"internal/core.Node.RestoreTable":              "TestSealRestoreTable (a daemon restart is to call it)",
	"internal/baselines/xsearch.Proxy.TableLen":    "TestObfuscateGroupShape",
	"internal/workers.Pool.Live":                   "TestPoolWorkersExpire",
	"internal/workers.Spawned":                     "TestSearchReusesPathWorkers",
	"internal/sensitivity.Linkability.HistorySize": "TestSearchRecordsQueryOnlyOnceItLeaves",
	"internal/workload.NewZipf":                    "TestConcurrentHammerDeterministicAggregates",
}

// stdInterfaceMethods are method names the standard library calls through
// an interface (fmt, errors, sort, container/heap, encoding, net/http, io).
var stdInterfaceMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true, "Timeout": true, "Temporary": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Read": true, "Write": true, "Close": true,
}

// apiBuiltins are the builtins a struct field is commonly passed to.
var apiBuiltins = map[string]bool{"len": true, "cap": true, "append": true, "copy": true, "delete": true, "min": true, "max": true, "make": true}

// apiDecl is one declaration the lint checks.
type apiDecl struct {
	dir       string // package directory, slash-separated
	typ, name string // typ is the receiver type of a method, else ""
	pos       string
}

func (d apiDecl) key() string {
	if d.typ != "" {
		return d.dir + "." + d.typ + "." + d.name
	}
	return d.dir + "." + d.name
}

// apiRef is one use of a name: bare (pkgDir set to the file's own package)
// or qualified through an import (pkgDir set to the imported directory).
// Method and field selectors are recorded by name alone, with pkgDir "".
// field marks a use that may be of a struct field: the key of a composite
// literal, or a selector that is neither called nor passed on as a value (an
// argument, an assigned, declared or returned value, a composite literal's
// element), where it might be a method value.
type apiRef struct {
	pkgDir, name string
	encl         string // key of the enclosing top-level declaration
	field        bool
}

// apiScan parses every non-test Go file under root and returns the
// declarations to check, every use of a name and every struct field name.
func apiScan(t *testing.T, root string) ([]apiDecl, []apiRef, map[string]bool) {
	t.Helper()
	var decls []apiDecl
	var refs []apiRef
	fields := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		// The benchmark module replaces cyclosa with this checkout, so its
		// imports of cyclosa/... name directories here.
		imports := map[string]string{}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(ip, "cyclosa/") {
				continue
			}
			local := path.Base(ip)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = strings.TrimPrefix(ip, "cyclosa/")
		}
		checked := strings.HasPrefix(dir, "internal/") && !strings.HasPrefix(dir, "internal/testutil")
		for _, decl := range f.Decls {
			encl, declared := apiDeclsOf(fset, dir, decl)
			if checked {
				decls = append(decls, declared...)
			}
			refs = append(refs, apiRefsOf(decl, dir, encl, imports, fields)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, refs, fields
}

// apiDeclsOf returns the key of the top-level declaration decl, for the
// references it holds, and what it declares that the lint checks.
func apiDeclsOf(fset *token.FileSet, dir string, decl ast.Decl) (string, []apiDecl) {
	mk := func(typ string, id *ast.Ident) apiDecl {
		return apiDecl{dir: dir, typ: typ, name: id.Name, pos: fset.Position(id.Pos()).String()}
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			// Unexported funcs are checked too: their package must use them.
			a := mk("", d.Name)
			if name := d.Name.Name; name != "init" && name != "main" && name != "_" {
				return a.key(), []apiDecl{a}
			}
			return a.key(), nil
		}
		typ := recvTypeName(d.Recv.List[0].Type)
		a := mk(typ, d.Name)
		if d.Name.IsExported() && ast.IsExported(typ) && !stdInterfaceMethods[a.name] {
			return a.key(), []apiDecl{a}
		}
		return a.key(), nil
	case *ast.GenDecl:
		var out []apiDecl
		encl := ""
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				encl = dir + "." + s.Name.Name
				if s.Name.IsExported() {
					out = append(out, mk("", s.Name))
				}
			case *ast.ValueSpec:
				for _, id := range s.Names {
					if id.IsExported() {
						out = append(out, mk("", id))
					}
				}
			}
		}
		// Only a lone type spec is its own enclosing declaration: a type
		// referring to itself is not a use, a const block's members are.
		if len(d.Specs) != 1 {
			encl = ""
		}
		return encl, out
	}
	return "", nil
}

// recvTypeName strips pointers and type parameters from a receiver type.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// apiRefsOf lists the names decl uses and adds the struct field names it
// declares to fields. Declaring identifiers, struct field names and a
// method's receiver are not uses.
func apiRefsOf(decl ast.Decl, dir, encl string, imports map[string]string, fields map[string]bool) []apiRef {
	skip := map[*ast.Ident]bool{}
	called := map[*ast.SelectorExpr]bool{} // called, or passed on as a value
	valued := func(es ...ast.Expr) {
		for _, e := range es {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				called[sel] = true
			}
		}
	}
	var refs []apiRef
	if fd, ok := decl.(*ast.FuncDecl); ok {
		skip[fd.Name] = true
		if fd.Recv != nil {
			ast.Inspect(fd.Recv, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					skip[id] = true
				}
				return true
			})
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.TypeSpec:
			skip[x.Name] = true
		case *ast.ValueSpec:
			for _, id := range x.Names {
				skip[id] = true
			}
			valued(x.Values...)
		case *ast.StructType:
			for _, fld := range x.Fields.List {
				for _, id := range fld.Names {
					skip[id], fields[id.Name] = true, true
				}
			}
		case *ast.CallExpr:
			valued(x.Fun)
			if id, ok := x.Fun.(*ast.Ident); !ok || !apiBuiltins[id.Name] {
				valued(x.Args...)
			}
		case *ast.AssignStmt:
			valued(x.Rhs...)
		case *ast.ReturnStmt:
			valued(x.Results...)
		case *ast.CompositeLit:
			for _, e := range x.Elts {
				kv, ok := e.(*ast.KeyValueExpr)
				if !ok {
					valued(e)
					continue
				}
				valued(kv.Value)
				if id, ok := kv.Key.(*ast.Ident); ok {
					skip[id] = true
					refs = append(refs, apiRef{pkgDir: dir, name: id.Name, encl: encl, field: true})
				}
			}
		case *ast.SelectorExpr:
			if pkg, ok := x.X.(*ast.Ident); ok {
				if ip, ok := imports[pkg.Name]; ok {
					skip[pkg], skip[x.Sel] = true, true
					refs = append(refs, apiRef{pkgDir: ip, name: x.Sel.Name, encl: encl})
					return true
				}
			}
			skip[x.Sel] = true
			refs = append(refs, apiRef{name: x.Sel.Name, encl: encl, field: !called[x]})
		case *ast.Ident:
			if !skip[x] {
				refs = append(refs, apiRef{pkgDir: dir, name: x.Name, encl: encl})
			}
		}
		return true
	})
	return refs
}

// unusedAPI returns, by key, the declarations no reference uses outside
// their own declaration.
func unusedAPI(decls []apiDecl, refs []apiRef, fields map[string]bool) map[string]apiDecl {
	byName := map[string][]apiRef{}
	for _, r := range refs {
		byName[r.name] = append(byName[r.name], r)
	}
	dead := map[string]apiDecl{}
	for _, d := range decls {
		used := false
		for _, r := range byName[d.name] {
			// Without type information a method is used when a call, an
			// interface or a method value names it; a method sharing its
			// name with a struct field needs a call or an interface.
			// Anything else must be named in its package or through an
			// import of it.
			if r.encl == d.key() {
				continue
			}
			if d.typ != "" && !(r.field && fields[d.name]) || d.typ == "" && r.pkgDir == d.dir {
				used = true
				break
			}
		}
		if !used {
			dead[d.key()] = d
		}
	}
	return dead
}

// TestAPILint fails on an exported identifier in internal/ (outside
// internal/testutil) — a top-level name, or a method of an exported type —
// that no program file uses outside its own declaration, and on an
// unexported top-level func its package never uses outside tests. Every
// non-test Go file of the repository counts as a user: cmd/, examples/, the
// root package and benchmark/ too. To keep a test seam, add it to
// apiLintAllow with the name of the test that needs it.
func TestAPILint(t *testing.T) {
	decls, refs, fields := apiScan(t, ".")
	dead := unusedAPI(decls, refs, fields)
	var found []string
	for k, d := range dead {
		if _, ok := apiLintAllow[k]; !ok {
			found = append(found, k+" ("+d.pos+")")
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("unused outside tests: %s; delete it, or allowlist it naming the test that needs it", f)
	}
	for k := range apiLintAllow {
		if _, ok := dead[k]; !ok {
			t.Errorf("apiLintAllow[%q] is stale: a program file uses it, or it no longer exists", k)
		}
	}
	if len(apiLintAllow) > 20 {
		t.Errorf("apiLintAllow has %d entries; at most 20", len(apiLintAllow))
	}
}
