package trace_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// The registry is the schema other packages and the ftlint tracekey pass
// trust; these tests pin its basic hygiene, reading it the way the pass
// does — out of this package's type-checked constant block.

// loadRegistry type-checks this package from source once for all tests.
var loadRegistry = sync.OnceValues(func() (*analysis.TraceKeys, error) {
	return analysis.NewLoader().TraceKeys(".")
})

func registry(t *testing.T) *analysis.TraceKeys {
	t.Helper()
	keys, err := loadRegistry()
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

func TestKnownKeysWellFormed(t *testing.T) {
	keys := registry(t)
	if !keys.Counters[trace.KCoreCheckpoints] || !keys.Events[trace.KEvFDDetect] {
		t.Fatalf("registry misses declared constants: %d counters, %d events", len(keys.Counters), len(keys.Events))
	}
	for k := range keys.Counters {
		if k == "" {
			t.Fatal("empty counter key in registry")
		}
		if strings.ContainsAny(k, " \t\n") {
			t.Fatalf("counter key %q contains whitespace", k)
		}
		if keys.Events[k] {
			t.Fatalf("counter key %q is also registered as an event", k)
		}
	}
	for k := range keys.Events {
		if keys.KnownCounter(k) {
			t.Fatalf("event key %q is also registered as a counter", k)
		}
	}
}

func TestRestoreFromKey(t *testing.T) {
	keys := registry(t)
	for _, src := range []string{"local", "neighbor", "remote", "pfs"} {
		if k := trace.RestoreFromKey(src); !keys.Counters[k] {
			t.Fatalf("RestoreFromKey(%q) = %q has no constant", src, k)
		}
	}
	// Prefix acceptance: a new restore tier keys cleanly without a
	// registry change...
	if !keys.KnownCounter(trace.RestoreFromKey("tape")) {
		t.Fatal("dynamic restore-source key rejected")
	}
	// ...but the bare prefix (empty suffix) is not a key.
	if keys.KnownCounter(trace.RestoreFromKey("")) {
		t.Fatal("bare restore_from_ prefix accepted as a key")
	}
}

func TestUnknownKeysRejected(t *testing.T) {
	keys := registry(t)
	for _, k := range []string{"", "core.checkpoint", "fd.recoveries ", "made.up"} {
		if keys.KnownCounter(k) || keys.Events[k] {
			t.Fatalf("unregistered key %q accepted", k)
		}
	}
}
