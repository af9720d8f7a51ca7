package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package under analysis: the parsed non-test
// sources plus the go/types objects the analyzers resolve against.
type Package struct {
	// Path is the package's import path (module-relative for repo
	// packages, synthetic for test fixtures).
	Path string
	// Dir is the directory holding the sources.
	Dir string
	// Name is the package clause name.
	Name string
	// Fset positions every token of Files.
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries identifier resolution (Uses/Defs/Selections/Types).
	Info *types.Info
	// TypeErrors collects soft type-check errors (analysis proceeds; the
	// driver surfaces them so a broken tree is not silently half-checked).
	TypeErrors []error
}

// Loader parses and type-checks packages using only the standard library:
// module-local import paths resolve to source directories under the module
// root, and everything else goes through go/importer's source importer.
// One Loader shares a FileSet and package cache across all loads.
type Loader struct {
	fset    *token.FileSet
	root    string // module root directory ("" disables module mapping)
	modPath string // module path from go.mod
	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader creates a loader rooted at the module directory root. When
// root is non-empty it must contain a go.mod naming the module; import
// paths under that module resolve to subdirectories. An empty root loads
// standalone directories (fixtures) whose imports are std-only.
func NewLoader(root string) (*Loader, error) {
	l := &Loader{
		fset:    token.NewFileSet(),
		root:    root,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	if root != "" {
		mod, err := modulePath(filepath.Join(root, "go.mod"))
		if err != nil {
			return nil, err
		}
		l.modPath = mod
	}
	return l, nil
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-local paths load from
// source under the module root, everything else delegates to the std
// source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.modPath != "" && (path == l.modPath || strings.HasPrefix(path, l.modPath+"/")) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		pkg, err := l.LoadDir(filepath.Join(l.root, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// LoadDir parses and type-checks the non-test .go files of one directory
// as the package importPath. Results are cached by import path.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	names, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go sources in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", filepath.Join(dir, name), err)
		}
		files = append(files, f)
	}
	pkg := &Package{
		Path:  importPath,
		Dir:   dir,
		Name:  files[0].Name.Name,
		Fset:  l.fset,
		Files: files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(importPath, l.fset, files, pkg.Info)
	if tpkg == nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	pkg.Types = tpkg
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// goSources lists the directory's non-test .go files, sorted.
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: reading %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// LoadModule loads every package of the loader's module whose directory
// matches one of the patterns. Patterns follow the go tool's shape:
// "./..." loads everything, "./dir/..." a subtree, "./dir" one package.
// Directories named testdata, hidden directories, _-prefixed directories
// and nested modules (a directory with its own go.mod, such as bench/)
// are skipped, as the go tool skips them.
func (l *Loader) LoadModule(patterns []string) ([]*Package, error) {
	if l.root == "" {
		return nil, fmt.Errorf("analysis: loader has no module root")
	}
	dirs, err := l.matchDirs(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		names, err := goSources(dir)
		if err != nil {
			return nil, err
		}
		if len(names) == 0 {
			continue
		}
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return nil, err
		}
		importPath := l.modPath
		if rel != "." {
			importPath = l.modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, importPath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// matchDirs expands patterns into the sorted set of candidate package
// directories under the module root.
func (l *Loader) matchDirs(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
		}
		if pat == "" || pat == "." {
			pat = "./"
		}
		base := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if path != l.root {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir // a module of its own
				}
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("analysis: walking %s: %w", base, err)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}
