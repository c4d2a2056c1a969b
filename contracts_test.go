package fpsping_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// contract is one named behaviour contract of the system: the tests that
// pin it (package directory and top-level Test or Fuzz function) and the
// CI jobs in .github/workflows/ci.yml that gate it. A change that deletes
// or renames code states "contracts unchanged" when this table and its
// check still pass, or edits the table and says why.
type contract struct {
	id    string
	what  string
	tests []string // "dir:TestName", dir relative to the module root
	jobs  []string // job ids under jobs: in ci.yml
}

var contracts = []contract{
	{
		id:   "golden-report",
		what: "fpsping all reproduces testdata/golden/report.txt byte for byte at any -jobs",
		tests: []string{
			"internal/experiments:TestReportDeterministicAcrossWorkerCounts",
		},
		jobs: []string{"golden-report"},
	},
	{
		id:   "cluster-sim-golden",
		what: "fpsrouter -sim reproduces testdata/golden/cluster-sim.txt byte for byte at any -sim-jobs",
		tests: []string{
			"cmd/fpsrouter:TestSimGolden",
			"internal/cluster:TestSimDeterministicAcrossJobs",
		},
		jobs: []string{"verify", "golden-report"},
	},
	{
		id:   "warm-equals-cold",
		what: "walked and cached evaluations are bit-identical to a cold evaluation; a quantile inversion starts from a point that depends only on the law and the level, and every Newton pass lands inside the live bracket",
		tests: []string{
			"internal/queueing:TestDEK1SolveFromBitIdenticalToSolve",
			"internal/mgf:TestNewtonStaysInBracket",
			"internal/core:TestWarmStartBitIdentical",
			"internal/core:TestLoadPathBitIdenticalToCold",
			"internal/core:TestLoadPathWalksMatchCold",
			"internal/service:TestRTTCacheHitIsByteIdentical",
		},
		jobs: []string{"verify"},
	},
	{
		id:   "root-solve-matches-appendix-c",
		what: "both queues' root solves are accurate against a 256-bit math/big oracle over K 1-200 from a vanishing load to 1e-9 below saturation: each solved root, k <= floor(K/2)+1, is within 4 eps times its condition number of the oracle's, relative; the D/E_K/1 solve succeeds where the Appendix-C fixed-point iteration does and each mirrored root is exactly the conjugate of its partner; the M/E_K/1 oracle roots are K distinct roots, and its law is served at every load up to 1-1e-4",
		tests: []string{
			"internal/queueing:TestDEK1SolveMatchesFixedPoint",
			"internal/queueing:TestMEK1SolveMatchesOracle",
		},
		jobs: []string{"verify", "race"},
	},
	{
		id:   "tail-matches-oracle",
		what: "the served delay-law tail is within 1e-12 relative of a math/big Appendix-A expansion over K 2-30 x rho 0.02-0.95, the multi-server law at K 2-200 and the PS=75 uplink corner, and the served quantile brackets the oracle's root to 1e-9",
		tests: []string{
			"internal/mgf:TestSumTailMatchesOracle",
		},
		jobs: []string{"verify", "race"},
	},
	{
		id:   "factor-laws-validated",
		what: "the wait law W passes Mix.Validate at serve time, whose checks cost O(poles): total mass 1, atom in [0, 1], imaginary mass within 1e-8 of zero on either side and a finite non-negative mean, each failing on NaN; the tail's shape is checked at test time, not at serve time: over both queues' W laws as served, K 1-200 x rho 0.001-0.999 in steps of 0.001 plus 1-10^-e for e = 4-9, and at fuzzed (K, rho), every law Validate accepts has a tail in [-1e-7, 1+1e-7] that rises by at most 1e-7 over 65 uniform probes out to ten means, and the grid's rejected laws are pinned (0 for D/E_K/1, 993 for M/E_K/1, each a total-mass ErrInvalid); the position law P, which mgf.NewSum builds from (K, beta), is not validated at serve time, because one Erlang ladder at beta > 0 with K-1 weights 1/(K-1) is a probability law by construction, checked with its tail scan for K 2-200",
		tests: []string{
			"internal/mgf:TestWaitTailScanOverVocabulary",
			"internal/mgf:FuzzWaitMixPolesDistinct",
			"internal/mgf:TestValidateRejectsNonFiniteAndImaginaryMass",
			"internal/mgf:TestPositionMixValidByConstruction",
		},
		jobs: []string{"verify", "fuzz"},
	},
	{
		id:   "factor-laws-by-construction",
		what: "the wait law W is built one term per real root and conjugate pair with no pole merged: the law it stands for, each pair expanded, equals the pole-merging AddTerm reference field for field, or both are rejected, for D/E_K/1 at K 2-200 x rho 1e-6-0.98 and M/E_K/1 at K 2-200, and a reference that merged poles is a rejected law; every served W has poles more than 1e-9 apart, relative; and Compile's allocation count does not grow with K",
		tests: []string{
			"internal/mgf:TestWaitMixMatchesAddTerm",
			"internal/mgf:FuzzWaitMixPolesDistinct",
			"internal/core:TestCompileAllocsFlatInK",
		},
		jobs: []string{"verify", "fuzz"},
	},
	{
		id:   "negligible-wait-is-atom",
		what: "the D/E_K/1 wait W is the unit atom exactly where one rule of (K, rho) decided before any root is solved says so, B = P(B > T) + r^2/(1 - r) <= 4e-15 with r = (e^{1-1/rho}/rho)^K: over K 2-200 x rho 0.001-0.999 in steps of 0.001 plus the rule's boundary at each K, every law that |zeta_1| < 1e-8 or zeta_1^K = 0 made the unit atom is dropped, no kept law has a solved |zeta_j^K| below 2^-1022, and every dropped W is exactly the unit atom, whose quantile (the BurstWait component) is 0 at levels 0.99-0.999999, from a DEK1.WaitMix that allocates nothing; for dropped laws at K 2-200 up to the boundary, P(W > 0) from the 256-bit oracle roots with the eq.-(27) weights is at most 4e-15; at the boundary law of every K the reference scenario's RTT quantile at levels 0.99-0.999999 and its mean RTT move by at most 1e-12 relative against W's eq.-(27) law; a fuzzed kept law passes Validate",
		tests: []string{
			"internal/queueing:TestNegligibleWaitIsAtom",
			"internal/queueing:TestNegligibleWaitMatchesOracle",
			"internal/queueing:TestNegligibleWaitKeepsAnswers",
			"internal/queueing:FuzzNegligibleWaitIsAtom",
		},
		jobs: []string{"verify", "fuzz"},
	},
	{
		id:   "conjugate-fold",
		what: "the D/E_K/1 and M/E_K/1 wait laws stored one term per conjugate pair evaluate as their expansions over K 1-200 x rho 1e-6-0.98: mass, mean, tail and density within 1e-13 of the sum of their terms' magnitudes, each quantile within Mix.Quantile's 1e-12(1+x) (for M/E_K/1 plus the shift that tail noise makes at its positive density), and the tail of a Sum over it within 1e-13 relative; their imaginary mass is exactly 0",
		tests: []string{
			"internal/mgf:TestFoldEqualsExpanded",
			"internal/mgf:FuzzFoldEqualsExpanded",
		},
		jobs: []string{"verify", "fuzz"},
	},
	{
		id:   "dimension-bracket",
		what: "a dimensioning answer is a probed feasible load with a probed infeasible one less than 1e-6 above it, within 1e-6 of bisection's, after at most 24 evaluations",
		tests: []string{
			"internal/core:TestMaxLoadITPContract",
			"internal/core:TestMaxLoadITPSyntheticEvaluators",
			"internal/core:TestMaxLoadWithMatchesMaxLoad",
		},
		jobs: []string{"verify"},
	},
	{
		id:   "dimension-agrees-with-rtt",
		what: "/v1/dimension's rtt_at_max_ms is /v1/rtt at max_downlink_load bit for bit and within the bound, and /v1/rtt 1e-6 above that load exceeds the bound unless it is the stability ceiling",
		tests: []string{
			"internal/service:TestDimensionAgreesWithRTT",
		},
		jobs: []string{"verify"},
	},
	{
		id:   "sweep-agrees-with-rtt",
		what: "each /v1/sweep point's rtt_ms is /v1/rtt's quantile_ms at the same load bit for bit, computed on separate servers, and a sweep is non-decreasing in load",
		tests: []string{
			"internal/service:TestSweepAgreesWithRTT",
		},
		jobs: []string{"verify"},
	},
	{
		id:   "warm-replay",
		what: "a daemon restored from a cache snapshot answers byte-identically, as hits, without recomputing",
		tests: []string{
			"internal/service:TestWarmRestartByteIdentical",
			"internal/client:TestCacheDumpWarmRoundTrip",
		},
		jobs: []string{"verify", "warm-restart"},
	},
	{
		id:   "computes-once",
		what: "concurrent identical cold requests run one computation; errors are never cached",
		tests: []string{
			"internal/memo:TestDoComputesOncePerKey",
			"internal/memo:TestPropertyConcurrentDoComputesOnce",
			"internal/service:TestSingleflightComputesOnce",
			"internal/service:TestEngineContentionStress",
		},
		jobs: []string{"verify", "race", "warm-restart"},
	},
	{
		id:   "affinity-beats-random",
		what: "scenario-affinity routing yields a higher cache hit ratio than random routing",
		tests: []string{
			"internal/cluster:TestSimAffinityBeatsRandom",
			"internal/cluster:TestClusterAffinityBeatsRandomLive",
		},
		jobs: []string{"verify", "cluster-loadtest"},
	},
	{
		id:   "finite-or-typed-error",
		what: "any input the scenario vocabulary accepts yields a finite answer or a typed 400/422, never a panic or an unbounded run; a quantile inversion makes at most maxTailPasses tail passes, and a component whose inversion fails is a 422, never a 0 ms component",
		tests: []string{
			"internal/mgf:TestInvertTailCapsPasses",
			"internal/mgf:TestTailPassesPerInversion",
			"internal/core:TestDecomposePropagatesInvalidComponent",
			"internal/scenario:FuzzFromQuery",
			"internal/scenario:FuzzFromJSON",
			"internal/service:TestRTTEndpointErrors",
			"internal/service:FuzzRTT",
			"internal/service:TestRTTAtErlangOrderCap",
			"internal/service:TestRTTAboveErlangOrderCap",
			"internal/service:TestRTTLargeErlangOrderFinishes",
			"internal/service:TestSweepRangeBounded",
			"cmd/fpsping:TestSweepRangeBounded",
		},
		jobs: []string{"verify", "fuzz"},
	},
	{
		id:   "quantile-monotone-in-level",
		what: "through an in-process server, the RTT quantile and each of its components do not decrease in the quantile level, over the scenario vocabulary, for levels whose tails differ by 1% or more",
		tests: []string{
			"internal/service:FuzzQuantileMonotoneInLevel",
		},
		jobs: []string{"verify", "fuzz"},
	},
	{
		id:   "batch-equals-single",
		what: "each /v1/rtt:batch item is the single /v1/rtt answer to its scenario, result bytes or error message, computed cold on separate servers",
		tests: []string{
			"internal/service:FuzzBatchItemEqualsSingle",
		},
		jobs: []string{"verify", "fuzz"},
	},
	{
		id:   "routed-equals-direct",
		what: "a request answered through fpsrouter gets the status, body bytes and cache disposition the daemon gives it directly, for answers, split batches and every rejection (bad parameter, unknown field, trailing JSON, over-limit body, unstable scenario, wrong method)",
		tests: []string{
			"internal/cluster:TestRoutedEqualsDirect",
			"internal/cluster:FuzzRoutedEqualsDirect",
		},
		jobs: []string{"verify", "fuzz"},
	},
	{
		id:   "one-outbound-exchange",
		what: "internal/client is the only non-test code outside perfbench/ that sends HTTP requests, holds an http.Client or http.Transport, or reads a response body; a response body over the client's cap is an error naming the cap, for a JSON answer and a /metrics page alike, and the router, which forwards through the client, fails over on it and answers 502 when no replica's answer fits",
		tests: []string{
			".:TestOutboundHTTPOnlyInClient",
			"internal/client:TestOverCapResponseIsAnError",
			"internal/cluster:TestRouterRejectsTruncatedReplicaBody",
			"internal/cluster:TestRouterFailsOverOnTruncatedReplicaBody",
		},
		jobs: []string{"verify"},
	},
	{
		id:   "exact-lru",
		what: "the memo cache holds exactly its capacity, evicts the cache-wide least recently used entry, and a snapshot restores whole in the same eviction order",
		tests: []string{
			"internal/memo:TestPropertyLRUMatchesReference",
			"internal/memo:TestExactCapacityIgnoresShards",
			"internal/memo:TestSnapshotAcrossShardCounts",
			"internal/memo:TestSnapshotRestoresEvictionOrder",
			"internal/service:TestLRUEviction",
		},
		jobs: []string{"verify", "race"},
	},
	{
		id:   "snapshot-stream-stable",
		what: "the FPSMEMO1 snapshot stream is byte-stable and its reader total: a four-key cache dumps to a literal stream and filters to a literal output, a value the codec cannot encode fails the dump naming its key, no upload panics the reader, a rejected stream leaves the cache's entries and recency order unchanged, an accepted stream re-encodes to its own bytes, and a /v1/cache:warm upload over the cap is a 400 naming the cap",
		tests: []string{
			"internal/memo:TestSnapshotStreamBytes",
			"internal/memo:TestDumpFailsOnUnencodableValue",
			"internal/memo:FuzzRestoreSnapshot",
			"internal/service:TestCacheWarmRejectsOverCapUpload",
		},
		jobs: []string{"verify", "fuzz"},
	},
	{
		id:   "compiled-model-immutable",
		what: "a compiled model keeps no state and takes no lock: 8 goroutines calling RTTQuantile, Decompose and MeanRTT on one model at K = 9 and K = 200 get the bits of a serial evaluation, and RTTQuantile on it allocates nothing at K = 9",
		tests: []string{
			"internal/core:TestCompiledModelConcurrentUse",
			"internal/core:TestCompiledEvaluatorAllocs",
		},
		jobs: []string{"verify", "race"},
	},
	{
		id:   "point-memo-holds-answers",
		what: "a cached point holds its answer only (gamers, RTT seconds, unstable marker), never the point's compiled laws: after cold sweeps at K = 30 and K = 200 and a GC, the engine retains at most 600 B of heap per cache entry",
		tests: []string{
			"internal/service:TestPointMemoRetention",
		},
		jobs: []string{"verify"},
	},
	{
		id:   "stable-keys-and-records",
		what: "canonical scenario keys and pt| snapshot records are byte-stable, since ring placement, snapshot keys and fpsload's hashing read them: the reference scenario's key is a literal, every key equals the %016x|...k%d form over a seeded grid that includes non-finite floats and extreme Erlang orders, and point records are pinned byte for byte",
		tests: []string{
			"internal/scenario:TestCanonicalGoldenKey",
			"internal/scenario:TestCanonicalMatchesFmtForm",
			"internal/service:TestPointRecordBytes",
		},
		jobs: []string{"verify"},
	},
	{
		id:   "production-reachable",
		what: "every top-level function and method in non-test Go, perfbench/ included, is reached from a binary's main or init, or is on a short allowlist with a reason; the ones outside perfbench/ that only perfbench's binary reaches are exactly a register, each with a reason; reachability is type-exact, following go/types objects and never method names, and its verdicts on a fixture module (a shared method name, an implicitly instantiated generic interface, an Unwrap reached only through errors.Is) are pinned",
		tests: []string{
			".:TestProductionReachable",
			".:TestReachabilityFixture",
		},
		jobs: []string{"verify"},
	},
}

// TestContractRegister checks that every registered test still exists as a
// top-level Test or Fuzz function in its package's _test.go files, and that
// every registered CI job is defined in the workflow.
func TestContractRegister(t *testing.T) {
	jobs := ciJobs(t, filepath.Join(".github", "workflows", "ci.yml"))
	funcs := make(map[string]map[string]bool) // dir -> test function names
	seen := make(map[string]bool)
	for _, c := range contracts {
		if c.id == "" || c.what == "" || len(c.tests) == 0 || len(c.jobs) == 0 {
			t.Errorf("contract %q: needs an id, a description, tests and jobs", c.id)
		}
		if seen[c.id] {
			t.Errorf("contract %q registered twice", c.id)
		}
		seen[c.id] = true
		for _, ref := range c.tests {
			dir, name, ok := strings.Cut(ref, ":")
			if !ok {
				t.Errorf("contract %q: test %q is not dir:TestName", c.id, ref)
				continue
			}
			if funcs[dir] == nil {
				funcs[dir] = testFuncs(t, dir)
			}
			if !funcs[dir][name] {
				t.Errorf("contract %q: %s has no test %s", c.id, dir, name)
			}
		}
		for _, job := range c.jobs {
			if !jobs[job] {
				t.Errorf("contract %q: ci.yml has no job %q", c.id, job)
			}
		}
	}
}

// testFuncs returns the top-level Test and Fuzz functions declared in dir's
// _test.go files.
func testFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no test files (%v)", dir, err)
	}
	out := make(map[string]bool)
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if ok && fn.Recv == nil && (strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				out[fn.Name.Name] = true
			}
		}
	}
	return out
}

// ciJobs returns the job ids declared under the workflow's top-level jobs:
// key: the two-space-indented keys that follow it.
func ciJobs(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	key := regexp.MustCompile(`^  ([A-Za-z0-9_-]+):\s*$`)
	out := make(map[string]bool)
	inJobs := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "jobs:":
			inJobs = true
		case inJobs && line != "" && line[0] != ' ' && line[0] != '#':
			inJobs = false
		case inJobs:
			if m := key.FindStringSubmatch(line); m != nil {
				out[m[1]] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatalf("%s: no jobs found", path)
	}
	return out
}
