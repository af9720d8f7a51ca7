package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"slices"
	"sort"
	"strings"
)

// WirecompatConfig parameterizes the wire-schema compatibility analyzer.
type WirecompatConfig struct {
	// LockPath is the committed golden-schema file.
	LockPath string
	// Structs maps package import paths to the gob structs (the on-disk
	// key and model formats) whose exported fields are locked and may
	// only be added to.
	Structs map[string][]string
	// Frames maps package import paths to the structs of the versioned
	// binary wire format (stream/wire.go). Their exported field sets must
	// equal the lock exactly — unless the version constant differs from
	// the locked one, which is the one legitimate way to change them.
	Frames map[string][]string
	// VersionPkg and VersionConst name the wire format's version, an
	// untyped integer constant, locked beside the frames.
	VersionPkg, VersionConst string
	// Update regenerates the lock from the current tree instead of
	// diffing against it.
	Update bool
}

// DefaultWireLockPath is the module-relative location of the committed
// wire schema.
const DefaultWireLockPath = "internal/protocol/wire.lock"

// DefaultWireConfig is the repository's schema: the gob structs that
// outlive a process (the persisted Paillier key and model formats), and
// the frames of the binary wire format — the protocol session frames
// (internal/protocol/wire.go and service.go) and the stream layer's
// message and trace records — locked together with stream.WireVersion.
func DefaultWireConfig(lockPath string, update bool) WirecompatConfig {
	return WirecompatConfig{
		LockPath: lockPath,
		Update:   update,
		Structs: map[string][]string{
			"ppstream/internal/paillier": {"wireKey"},
			"ppstream/internal/nn":       {"tensorBlob", "layerBlob", "networkBlob"},
		},
		Frames: map[string][]string{
			"ppstream/internal/protocol": {"Hello", "roundFrame", "TraceContext", "WireSpan", "WireCost", "WireEnvelope"},
			"ppstream/internal/stream":   {"Message", "Span", "Trace"},
		},
		VersionPkg:   "ppstream/internal/stream",
		VersionConst: "WireVersion",
	}
}

// wireField is one locked (package, struct, field, type) entry. The
// version constant is locked as the entry (package, "const", name, value).
type wireField struct {
	Pkg, Struct, Field, Type string
}

// versionStruct is the Struct of the version constant's lock entry; no Go
// struct can be named by a keyword.
const versionStruct = "const"

func (f wireField) key() string { return f.Pkg + " " + f.Struct + " " + f.Field }

// NewWirecompatAnalyzer builds the wire-schema analyzer.
//
// Invariants: the gob formats must evolve additively. Old readers decode
// blobs with unknown fields skipped and missing fields zero, so ADDING a
// field keeps old files readable — but REMOVING or RETYPING one silently
// breaks them (gob fails or, worse, decodes garbage). The binary wire
// format has no such slack: a frame is fixed-width fields in a fixed
// order, so ANY change to a frame struct's field set is a new format and
// must come with a new version constant, which a peer of the old format
// then refuses at the preface instead of misparsing. The analyzer
// extracts the exported field sets and the constant and diffs them
// against the committed lock; pplint -update regenerates it.
func NewWirecompatAnalyzer(cfg WirecompatConfig) *Analyzer {
	state := &wirecompatState{
		cfg:      cfg,
		current:  map[string]wireField{},
		fieldPos: map[string]token.Position{},
		visited:  map[string]bool{},
	}
	return &Analyzer{
		Name:   "wirecompat",
		Doc:    "gob structs must evolve additively, and wire frames only with the version constant, against the committed wire.lock schema",
		Run:    state.run,
		Finish: state.finish,
	}
}

type wirecompatState struct {
	cfg      WirecompatConfig
	current  map[string]wireField      // key() -> entry
	fieldPos map[string]token.Position // key() -> source position
	visited  map[string]bool           // package paths seen this run
}

func (s *wirecompatState) run(pass *Pass) error {
	names := append(append([]string(nil), s.cfg.Structs[pass.Pkg.Path]...), s.cfg.Frames[pass.Pkg.Path]...)
	scope := pass.Pkg.Types.Scope()
	if pass.Pkg.Path == s.cfg.VersionPkg {
		s.visited[pass.Pkg.Path] = true
		c, ok := scope.Lookup(s.cfg.VersionConst).(*types.Const)
		if !ok {
			pass.Reportf(pass.Pkg.Files[0].Pos(), "wire version constant %s not found in %s", s.cfg.VersionConst, pass.Pkg.Path)
		} else {
			entry := wireField{Pkg: pass.Pkg.Path, Struct: versionStruct, Field: s.cfg.VersionConst, Type: c.Val().ExactString()}
			s.current[entry.key()] = entry
			s.fieldPos[entry.key()] = pass.Pkg.Fset.Position(c.Pos())
		}
	}
	if len(names) == 0 {
		return nil
	}
	s.visited[pass.Pkg.Path] = true
	for _, name := range names {
		obj := scope.Lookup(name)
		if obj == nil {
			pass.Reportf(pass.Pkg.Files[0].Pos(), "wire struct %s not found in %s: if it was renamed or removed, the wire format is no longer decodable by old peers", name, pass.Pkg.Path)
			continue
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			pass.Reportf(obj.Pos(), "wire type %s is no longer a struct", name)
			continue
		}
		qual := types.RelativeTo(pass.Pkg.Types)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue // neither gob nor the frame codecs carry unexported fields
			}
			entry := wireField{
				Pkg:    pass.Pkg.Path,
				Struct: name,
				Field:  f.Name(),
				Type:   types.TypeString(f.Type(), qual),
			}
			s.current[entry.key()] = entry
			s.fieldPos[entry.key()] = pass.Pkg.Fset.Position(f.Pos())
		}
	}
	return nil
}

func (s *wirecompatState) finish(report func(Diagnostic)) error {
	if s.cfg.Update {
		return s.writeLock()
	}
	locked, lockLines, err := readLock(s.cfg.LockPath)
	if err != nil {
		if os.IsNotExist(err) {
			report(Diagnostic{
				Pos:  token.Position{Filename: s.cfg.LockPath, Line: 1},
				Rule: "wirecompat",
				Msg:  "wire schema lock missing: run pplint -update to generate it",
			})
			return nil
		}
		return err
	}
	// A version constant that differs from the locked one is the
	// legitimate way to change frames: one diagnostic asks for the lock to
	// follow, and the frames are not diffed against the format they left.
	versionKey := wireField{Pkg: s.cfg.VersionPkg, Struct: versionStruct, Field: s.cfg.VersionConst}.key()
	bumped := false
	lockedKeys := map[string]bool{}
	for _, entry := range locked {
		lockedKeys[entry.key()] = true
		if cur, ok := s.current[versionKey]; ok && entry.key() == versionKey && cur.Type != entry.Type {
			bumped = true
			report(Diagnostic{
				Pos:  s.fieldPos[versionKey],
				Rule: "wirecompat",
				Msg:  fmt.Sprintf("wire version changed from %s to %s: run pplint -update so the lock records the new format", entry.Type, cur.Type),
			})
		}
	}
	unversioned := fmt.Sprintf("without %s changing: a peer of the old format would misparse the frame instead of refusing the connection — bump the version and run pplint -update", s.cfg.VersionConst)
	for _, entry := range locked {
		if !s.visited[entry.Pkg] || entry.Struct == versionStruct {
			continue // package outside this run's patterns
		}
		frame := slices.Contains(s.cfg.Frames[entry.Pkg], entry.Struct)
		if frame && bumped {
			continue
		}
		cur, ok := s.current[entry.key()]
		if !ok {
			msg := fmt.Sprintf("wire field %s.%s (%s) was removed: the gob format must evolve additively — old files still carry it (run pplint -update only for intentional, coordinated breaks)", entry.Struct, entry.Field, entry.Type)
			if frame {
				msg = fmt.Sprintf("frame field %s.%s (%s) was removed %s", entry.Struct, entry.Field, entry.Type, unversioned)
			}
			report(Diagnostic{
				Pos:  token.Position{Filename: s.cfg.LockPath, Line: lockLines[entry.key()]},
				Rule: "wirecompat",
				Msg:  msg,
			})
			continue
		}
		if cur.Type != entry.Type {
			msg := fmt.Sprintf("wire field %s.%s retyped from %s to %s: gob decodes this as garbage or an error on old files — add a new field instead", entry.Struct, entry.Field, entry.Type, cur.Type)
			if frame {
				msg = fmt.Sprintf("frame field %s.%s retyped from %s to %s %s", entry.Struct, entry.Field, entry.Type, cur.Type, unversioned)
			}
			report(Diagnostic{Pos: s.fieldPos[entry.key()], Rule: "wirecompat", Msg: msg})
		}
	}
	if bumped {
		return nil
	}
	var added []string
	for key, cur := range s.current {
		if !lockedKeys[key] && slices.Contains(s.cfg.Frames[cur.Pkg], cur.Struct) {
			added = append(added, key)
		}
	}
	sort.Strings(added)
	for _, key := range added {
		cur := s.current[key]
		report(Diagnostic{
			Pos:  s.fieldPos[key],
			Rule: "wirecompat",
			Msg:  fmt.Sprintf("frame field %s.%s (%s) was added %s", cur.Struct, cur.Field, cur.Type, unversioned),
		})
	}
	return nil
}

const lockHeader = `# pplint wirecompat schema lock — generated by "pplint -update"; do not edit.
# One line per exported field of every locked struct, and one for the wire
# format's version constant:
#   <package> <struct> <field> <type>
#   <package> const <name> <value>
# The gob structs (internal/nn, internal/paillier: formats on disk) may
# only gain fields. The others are frames of the binary wire format: any
# change to them fails pplint unless the version constant changed too.
`

func (s *wirecompatState) writeLock() error {
	keys := make([]string, 0, len(s.current))
	for k := range s.current {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(lockHeader)
	for _, k := range keys {
		e := s.current[k]
		fmt.Fprintf(&b, "%s %s %s %s\n", e.Pkg, e.Struct, e.Field, e.Type)
	}
	return os.WriteFile(s.cfg.LockPath, []byte(b.String()), 0o644)
}

// readLock parses the lock file into entries plus each entry's line
// number for diagnostics.
func readLock(path string) ([]wireField, map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var entries []wireField
	lines := map[string]int{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) < 4 {
			return nil, nil, fmt.Errorf("analysis: %s:%d: malformed lock entry %q", path, i+1, line)
		}
		e := wireField{Pkg: parts[0], Struct: parts[1], Field: parts[2], Type: strings.Join(parts[3:], " ")}
		entries = append(entries, e)
		lines[e.key()] = i + 1
	}
	return entries, lines, nil
}
