package service

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"

	"fpsping/internal/memo"
	"fpsping/internal/scenario"
)

// cacheSchemaVersion is the manual component of the snapshot schema key.
// Bump it whenever a change alters what cached values mean or how they are
// encoded (a new RTTResult field, a different pointMemo layout, a model fix
// that shifts numbers) without necessarily changing the VCS revision — e.g.
// during local iteration. VCS-stamped builds are additionally keyed by
// revision, so released binaries invalidate snapshots on any code change.
const cacheSchemaVersion = 1

// SchemaKey returns the build-stamped schema string every snapshot this
// binary writes is keyed by, and the only schema it accepts back. It folds
// in the snapshot codec version, the Go toolchain, the target architecture
// and the VCS revision (plus a dirty marker), so a binary with changed model
// code rejects stale snapshots instead of serving answers the current code
// would not compute. The architecture is part of the key because the Go
// spec lets the compiler fuse multiply-adds, and it does so on some
// architectures (arm64) but not others (amd64): a replica must not serve
// bytes computed under another architecture's rounding.
// Builds without VCS stamping (go test, go run from a plain directory)
// share the "dev" stamp — fine for tests, which compare within one build.
func SchemaKey() string { return schemaKey() }

var schemaKey = sync.OnceValue(func() string {
	rev := "dev"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var vcsRev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				vcsRev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if vcsRev != "" {
			rev = vcsRev + dirty
		} else if bi.Main.Sum != "" {
			rev = bi.Main.Sum
		}
	}
	return fmt.Sprintf("fpsping-cache|v%d|%s|%s|%s", cacheSchemaVersion, runtime.Version(), runtime.GOARCH, rev)
})

// engineCodec translates the engine's memo entries to snapshot records.
// Every value is JSON: encoding/json round-trips float64 bit-exactly
// (shortest-representation printing), so a restored entry re-marshals to
// the byte-identical response a live entry would produce. Encode knows the
// four value types the engine caches; Decode dispatches on the memo key
// prefix and rejects unknown prefixes (a same-schema snapshot cannot
// contain them).
type engineCodec struct{}

func (engineCodec) Encode(key string, val any) ([]byte, error) {
	switch val.(type) {
	case RTTResult, pointMemo, SweepResult, DimensionResult:
		return json.Marshal(val)
	}
	return nil, fmt.Errorf("no snapshot encoding for %T", val)
}

func (engineCodec) Decode(key string, data []byte) (any, error) {
	switch {
	case strings.HasPrefix(key, "rtt|"):
		return decodeRecord[RTTResult](data)
	case strings.HasPrefix(key, "pt|"):
		return decodeRecord[pointMemo](data)
	case strings.HasPrefix(key, "sweep|"):
		return decodeRecord[SweepResult](data)
	case strings.HasPrefix(key, "dim|"):
		return decodeRecord[DimensionResult](data)
	}
	return nil, fmt.Errorf("unknown memo key space %q", key)
}

// decodeRecord decodes one snapshot record strictly into a T. It reads the
// value only after decoding returns: in `return v, decode(&v)` the Go spec
// leaves unspecified whether v is read before or after the call.
func decodeRecord[T any](data []byte) (any, error) {
	var v T
	if err := scenario.UnmarshalStrict(data, &v); err != nil {
		return nil, err
	}
	return v, nil
}

// DumpCache writes a snapshot of the engine's memo cache: every entry (RTT
// answers, sweep grids, dimensionings and the shared point memo),
// versioned, checksummed and keyed by SchemaKey.
func (e *Engine) DumpCache(w io.Writer) (memo.DumpStats, error) {
	return e.cache.Dump(w, SchemaKey(), engineCodec{})
}

// WarmCache restores a snapshot into the engine's memo cache under
// never-clobber semantics: entries already live (newer) win, and a full
// cache skips archived entries rather than evicting live ones. A snapshot
// from a different schema (changed model code) is rejected whole with
// memo.ErrSchemaMismatch; a corrupt one with memo.ErrSnapshot. Either way
// the cache is untouched on error.
func (e *Engine) WarmCache(r io.Reader) (memo.RestoreStats, error) {
	return e.cache.Restore(r, SchemaKey(), engineCodec{})
}

// canonicalSegments is the number of '|'-separated segments in one
// canonical scenario key, derived from the scenario package itself so this
// parser can never drift from the key format.
var canonicalSegments = sync.OnceValue(func() int {
	return len(strings.Split(scenario.Default().Canonical(), "|"))
})

// ScenarioKeyOf extracts the canonical scenario key from an engine memo key
// ("rtt|<canonical>", "pt|<canonical>", "sweep|<canonical>|from|to|step",
// "dim|<canonical>|bound"). ok=false means the key belongs to no known
// scenario-keyed space. The cluster router's bootstrap uses this to decide
// which snapshot records a replica owns under the hash ring, which routes
// requests by exactly this canonical key.
func ScenarioKeyOf(memoKey string) (key string, ok bool) {
	i := strings.IndexByte(memoKey, '|')
	if i < 0 {
		return "", false
	}
	switch memoKey[:i+1] {
	case "rtt|", "pt|", "sweep|", "dim|":
	default:
		return "", false
	}
	rest := memoKey[i+1:]
	parts := strings.SplitN(rest, "|", canonicalSegments()+1)
	if len(parts) < canonicalSegments() {
		return "", false
	}
	return strings.Join(parts[:canonicalSegments()], "|"), true
}
