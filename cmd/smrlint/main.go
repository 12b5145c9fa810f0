// Command smrlint machine-checks the repository's hand-maintained invariants
// that no test can observe: determinism of the Apply path (applydet), the
// read-only command-buffer contract (retained), and mutex guard annotations
// (guardedby). Invariants a test observes directly are tests instead: the
// hot paths' allocation counts (TestCodecAllocs, TestKVCodecAllocs,
// TestZeroAllocRecordPath) and the closure of the wire error-code taxonomy
// (internal/wire's TestTaxonomyIsClassified, TestTaxonomyRoundTrip and
// TestCodesAreNamedNotSpelt).
//
// It runs two ways:
//
//	smrlint ./...                 # standalone: loads, typechecks, analyzes
//	go vet -vettool=$(which smrlint) ./...   # as a go vet tool
//
// In vet mode it speaks cmd/go's vet protocol: -V=full prints a version line
// with a content-derived build ID, -flags prints the (empty) flag schema, and
// a trailing vet.cfg argument selects unit mode, in which one package is
// analyzed against export data and serialized facts from its dependencies.
//
// Exit status: 0 clean, 1 tool failure, 2 findings.
package main

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rdmaagreement/internal/lint/analysis"
	"rdmaagreement/internal/lint/applydet"
	"rdmaagreement/internal/lint/checker"
	"rdmaagreement/internal/lint/guardedby"
	"rdmaagreement/internal/lint/load"
	"rdmaagreement/internal/lint/retained"
)

// analyzers is the smrlint suite, in reporting order.
var analyzers = []*analysis.Analyzer{
	applydet.Analyzer,
	guardedby.Analyzer,
	retained.Analyzer,
}

func main() {
	args := os.Args[1:]
	for _, a := range args {
		switch {
		case a == "-V" || strings.HasPrefix(a, "-V="):
			printVersion()
			return
		case a == "-flags":
			// No tool-specific flags; cmd/go wants the JSON schema.
			fmt.Println("[]")
			return
		}
	}
	if n := len(args); n > 0 && strings.HasSuffix(args[n-1], ".cfg") {
		os.Exit(unit(args[n-1]))
	}
	os.Exit(standalone(args))
}

// printVersion implements the -V=full handshake: cmd/go caches vet results
// keyed on this line, so it must change when the tool's code changes — hash
// the executable.
func printVersion() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("smrlint version devel buildID=%x\n", h.Sum(nil))
}

// standalone loads the named patterns (default ./...) with the go command and
// analyzes every main-module package in dependency order.
func standalone(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	res, err := load.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smrlint:", err)
		return 1
	}
	facts := checker.NewFacts()
	total := 0
	for _, p := range res.Packages {
		findings, err := checker.Analyze(checker.Target{Fset: res.Fset, Files: p.Files, Pkg: p.Pkg, Info: p.Info}, analyzers, facts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "smrlint:", err)
			return 1
		}
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f.String())
		}
		total += len(findings)
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "smrlint: %d finding(s)\n", total)
		return 2
	}
	return 0
}

// vetConfig is the JSON cmd/go writes to <objdir>/vet.cfg for each unit.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

// unit analyzes one package under the vet protocol.
func unit(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smrlint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "smrlint: parsing %s: %v\n", cfgFile, err)
		return 1
	}

	// The invariants are module-local: analyzing standard-library or external
	// units would walk fmt into the runtime and drown the module's signal
	// (everything transitively "spawns a goroutine" via the GC). Units outside
	// any module get an empty fact file and a clean exit.
	if cfg.ModulePath == "" {
		return writeVetx(cfg.VetxOutput, nil, nil)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(cfg.Dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return writeVetx(cfg.VetxOutput, nil, nil)
			}
			fmt.Fprintln(os.Stderr, "smrlint:", err)
			return 1
		}
		files = append(files, f)
	}

	imp := cfgImporter(fset, &cfg)
	pkg, info, err := load.Check(fset, imp, cfg.ImportPath, cfg.GoVersion, files)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return writeVetx(cfg.VetxOutput, nil, nil)
		}
		fmt.Fprintln(os.Stderr, "smrlint:", err)
		return 1
	}

	facts := checker.NewFacts()
	if err := readDepFacts(facts, &cfg, imp); err != nil {
		fmt.Fprintln(os.Stderr, "smrlint:", err)
		return 1
	}

	findings, err := checker.Analyze(checker.Target{Fset: fset, Files: files, Pkg: pkg, Info: info}, analyzers, facts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smrlint:", err)
		return 1
	}
	if rc := writeVetx(cfg.VetxOutput, facts, pkg); rc != 0 {
		return rc
	}
	if cfg.VetxOnly || len(findings) == 0 {
		return 0
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f.String())
	}
	return 2
}

// cfgImporter resolves imports through the unit's ImportMap and PackageFile
// export data.
func cfgImporter(fset *token.FileSet, cfg *vetConfig) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// vetxFact is the serialized form of one object fact: the object is named
// "Func" for package-scope objects or "Type.Method" for methods.
type vetxFact struct {
	Obj  string
	Fact analysis.Fact
}

func registerFactTypes() {
	for _, a := range analyzers {
		for _, f := range a.FactTypes {
			gob.Register(f)
		}
	}
}

// writeVetx serializes the current package's exported facts. cmd/go always
// expects the output file, even when empty.
func writeVetx(path string, facts *checker.Facts, pkg *types.Package) int {
	if path == "" {
		return 0
	}
	registerFactTypes()
	var out []vetxFact
	if facts != nil && pkg != nil {
		for obj, byType := range facts.All() {
			if obj.Pkg() != pkg {
				continue
			}
			name, ok := factObjName(obj)
			if !ok {
				continue
			}
			for _, fact := range byType {
				out = append(out, vetxFact{Obj: name, Fact: fact})
			}
		}
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smrlint:", err)
		return 1
	}
	defer f.Close()
	if err := gob.NewEncoder(f).Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "smrlint: encoding %s: %v\n", path, err)
		return 1
	}
	return 0
}

// readDepFacts decodes each dependency's vetx file and re-keys its facts onto
// the objects of this unit's imported package view.
func readDepFacts(facts *checker.Facts, cfg *vetConfig, imp types.Importer) error {
	registerFactTypes()
	for path, file := range cfg.PackageVetx {
		pkg, err := imp.Import(path)
		if err != nil {
			continue // dependency not imported by this unit's sources
		}
		data, err := os.ReadFile(file)
		if err != nil || len(data) == 0 {
			continue
		}
		var in []vetxFact
		if err := gob.NewDecoder(strings.NewReader(string(data))).Decode(&in); err != nil {
			return fmt.Errorf("decoding facts of %s: %v", path, err)
		}
		for _, vf := range in {
			if obj := lookupFactObj(pkg, vf.Obj); obj != nil {
				facts.ExportObjectFact(obj, vf.Fact)
			}
		}
	}
	return nil
}

// factObjName names an object for serialization; objects that cannot be
// resolved through export data (locals, unexported method shapes the importer
// drops) are skipped — their facts are unreachable across packages anyway.
func factObjName(obj types.Object) (string, bool) {
	if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
		return obj.Name(), true
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	return named.Obj().Name() + "." + fn.Name(), true
}

func lookupFactObj(pkg *types.Package, name string) types.Object {
	typeName, method, isMethod := strings.Cut(name, ".")
	obj := pkg.Scope().Lookup(typeName)
	if !isMethod {
		return obj
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil
	}
	m, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, method)
	return m
}
