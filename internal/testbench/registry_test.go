package testbench

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ndf"
)

// Every campaign of the package must be registered, with a schema the
// CLIs and the HTTP service can render.
func TestRegistryCatalogue(t *testing.T) {
	want := []string{
		"backends", "corners", "counter", "faults", "fig1", "fig4", "fig4mc",
		"fig4spice", "fig6", "fig7", "fig8", "linear", "metric", "noise",
		"noisesweep", "q", "regress", "selftest", "spectral", "stimopt",
		"table1", "temp", "yield",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registry has %d campaigns %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("campaign[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	for _, info := range List() {
		if info.Summary == "" {
			t.Fatalf("campaign %s has no summary", info.Name)
		}
		for _, p := range info.Params {
			if p.Name == "" || p.Type == "" {
				t.Fatalf("campaign %s has a malformed param field: %+v", info.Name, p)
			}
		}
	}
	// Schema spot check: fig4mc documents its three knobs with defaults.
	var fig4mc *Info
	for i := range List() {
		if l := List()[i]; l.Name == "fig4mc" {
			fig4mc = &l
		}
	}
	if fig4mc == nil || len(fig4mc.Params) != 3 {
		t.Fatalf("fig4mc schema = %+v", fig4mc)
	}
	if fig4mc.Params[0].Name != "monitor" || fig4mc.Params[0].Default != 2 {
		t.Fatalf("fig4mc monitor field = %+v", fig4mc.Params[0])
	}
}

func TestRunUnknownCampaign(t *testing.T) {
	_, err := Run(context.Background(), Spec{Campaign: "nope"})
	if err == nil || !strings.Contains(err.Error(), "unknown campaign") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "fig4mc") {
		t.Fatalf("error does not list known campaigns: %v", err)
	}
}

// A typo'd param must fail loudly, not silently run defaults.
func TestRunRejectsUnknownParam(t *testing.T) {
	_, err := Run(context.Background(), Spec{
		Campaign: "fig4mc",
		Params:   map[string]any{"diez": 10},
	})
	if err == nil || !strings.Contains(err.Error(), "bad params") {
		t.Fatalf("err = %v", err)
	}
}

// The same campaign must be bit-identical whether it is reached through
// typed params on a pinned system or a JSON-decoded spec naming the
// backend (the HTTP body path), at any worker count, on both backends.
func TestRegistryMatchesLegacyBothBackends(t *testing.T) {
	for _, backend := range core.Backends() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			if backend == "spice" && testing.Short() {
				t.Skip("SPICE campaign skipped under -short")
			}
			sys, err := core.SystemForBackend(backend)
			if err != nil {
				t.Fatal(err)
			}
			dec := ndf.Decision{Threshold: 0.02}
			faults := DefaultFaultSet()[:4]
			typed, err := runAs[FaultTable](context.Background(), Spec{Campaign: "faults",
				Params: FaultsParams{Threshold: &dec.Threshold, Faults: faults}}, WithSystem(sys))
			if err != nil {
				t.Fatal(err)
			}
			// JSON spec, exactly as an HTTP body would arrive.
			body := []byte(`{"campaign":"faults","backend":"` + backend +
				`","workers":3,"params":{"threshold":0.02,"faults":` + mustJSON(t, faults) + `}}`)
			var spec Spec
			if err := json.Unmarshal(body, &spec); err != nil {
				t.Fatal(err)
			}
			res, err := Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Payload.(*FaultTable)
			if got.Render() != typed.Render() {
				t.Fatalf("JSON spec table differs from the typed spec:\n%s\nvs\n%s",
					got.Render(), typed.Render())
			}
			if res.Text != typed.Render() {
				t.Fatal("result Text does not match the payload rendering")
			}
		})
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// The Result envelope must survive a JSON round-trip with its payload
// typed, so stored campaign results stay machine-readable.
func TestResultJSONRoundTrip(t *testing.T) {
	res, err := Run(context.Background(), Spec{
		Campaign: "fig4mc",
		Seed:     7,
		Workers:  2,
		Params:   Fig4MCParams{Monitor: 2, Dies: 20, Cols: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	env, ok := back.Payload.(*Fig4MC)
	if !ok {
		t.Fatalf("decoded payload is %T", back.Payload)
	}
	if env.Render() != res.Payload.(*Fig4MC).Render() {
		t.Fatal("payload rendering changed across the JSON round-trip")
	}
	p, ok := back.Spec.Params.(*Fig4MCParams)
	if !ok || p.Dies != 20 || p.Cols != 11 {
		t.Fatalf("decoded params = %#v", back.Spec.Params)
	}
	if back.Workers != 2 || back.Spec.Seed != 7 {
		t.Fatalf("metadata lost: %+v", back)
	}
}

// Defaults fill in everything a spec omits, and the effective params are
// recorded on the returned envelope.
func TestRunDefaultsAndEffectiveSpec(t *testing.T) {
	res, err := Run(context.Background(), Spec{
		Campaign: "fig4mc",
		Params:   map[string]any{"dies": 15, "cols": 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Spec.Params.(*Fig4MCParams)
	if p.Monitor != 2 {
		t.Fatalf("default monitor = %d, want 2", p.Monitor)
	}
	if p.Dies != 15 || p.Cols != 9 {
		t.Fatalf("explicit params lost: %+v", p)
	}
	if res.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}
}

// WithProgress streams chunk-granular completion without changing the
// result: counts are monotone, the total is the die count, and the spec
// chunk knob sets the tick granularity.
func TestRunProgressStreaming(t *testing.T) {
	var mu sync.Mutex
	var last [2]int
	calls := 0
	res, err := Run(context.Background(), Spec{
		Campaign: "fig4mc",
		Seed:     7,
		Chunk:    10, // 30 dies -> 3 chunk ticks
		Params:   Fig4MCParams{Monitor: 2, Dies: 30, Cols: 9},
	}, WithProgress(func(done, total int) {
		mu.Lock()
		calls++
		if done < last[0] {
			t.Errorf("progress went backwards: %d after %d", done, last[0])
		}
		last = [2]int{done, total}
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	// One tick per 10-die chunk; late ticks that would not advance the
	// count are suppressed, so under parallelism fewer may be delivered.
	if calls < 1 || calls > 3 {
		t.Fatalf("progress calls = %d, want 1..3 (chunk-granular)", calls)
	}
	if last != [2]int{30, 30} {
		t.Fatalf("final progress = %v, want {30 30}", last)
	}
	plain, err := runAs[Fig4MC](context.Background(), Spec{Campaign: "fig4mc", Seed: 7, Params: Fig4MCParams{Monitor: 2, Dies: 30, Cols: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Render() != res.Payload.(*Fig4MC).Render() {
		t.Fatal("progress observation (and the chunk knob) changed the result")
	}
}

// A campaign cancelled mid-flight returns context.Canceled within one
// trial's latency and leaks no goroutines.
func TestRunCancellationPromptAndLeakFree(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	started := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		// A deliberately huge yield population: only cancellation ends it
		// in reasonable time.
		thr := 0.03
		_, err := Run(ctx, Spec{
			Campaign: "yield",
			Seed:     7,
			Params:   YieldParams{N: 1_000_000, ComponentSigma: 0.02, Tol: 0.05, Threshold: &thr},
		}, WithProgress(func(done, total int) {
			once.Do(func() { close(started) })
		}))
		errCh <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation not honoured within 10s")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after cancel, started with %d", got, before)
	}
}

// TestSpecScalarEngineBitIdentical: "scalar" is a retired engine switch
// and a no-op. A spec that sets it decodes strictly, validates, and
// returns the payload of the same spec without it, on the exact-signature
// path (fig8) and the noisy capture path (noise); its effective spec
// records it false.
func TestSpecScalarEngineBitIdentical(t *testing.T) {
	for _, body := range []string{
		`{"campaign":"fig8","scalar":true,"params":{"max_dev":0.1,"points":5,"tol":0.05}}`,
		`{"campaign":"noise","seed":3,"scalar":true,"params":{"sigma":0.005,"devs":[0.02],"null_trials":4,"trials":4}}`,
	} {
		var spec Spec
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if !spec.Scalar {
			t.Fatalf("%s: scalar did not decode", body)
		}
		if err := Validate(spec); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		plain := spec
		plain.Scalar = false
		want, err := Run(context.Background(), plain)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if got.Spec.Scalar {
			t.Fatalf("%s: the effective spec records scalar", body)
		}
		gp, err := json.Marshal(got.Payload)
		if err != nil {
			t.Fatal(err)
		}
		wp, err := json.Marshal(want.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if string(gp) != string(wp) || got.Text != want.Text {
			t.Fatalf("%s: scalar changed the payload:\n%s\nvs\n%s", body, gp, wp)
		}
	}
}

// Cancellation must also cut the non-pool loop campaigns (per-iteration
// ctx checks), using the campaign engine's seed-free path.
func TestLoopCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Spec{Campaign: "stimopt", Params: StimOptParams{Shift: 0.05, Grid: 8}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	_, err = Run(ctx, Spec{Campaign: "metric", Params: MetricParams{Devs: []float64{0.05}}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Spec worker bounds and the WithWorkers override agree with the default
// full-pool run bit for bit (sanity of the option plumbing).
func TestWorkerOptionOverride(t *testing.T) {
	base, err := Run(context.Background(), Spec{Campaign: "fig4mc", Seed: 3,
		Params: Fig4MCParams{Monitor: 1, Dies: 24, Cols: 9}})
	if err != nil {
		t.Fatal(err)
	}
	over, err := Run(context.Background(), Spec{Campaign: "fig4mc", Seed: 3, Workers: 64,
		Params: Fig4MCParams{Monitor: 1, Dies: 24, Cols: 9}}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if over.Workers != 1 {
		t.Fatalf("effective workers = %d, want 1", over.Workers)
	}
	if base.Text != over.Text {
		t.Fatal("worker bound changed the envelope")
	}
}

// Decoding a spec's params never rewrites the registered defaults: a
// shorter slice param decodes into an array of its own, so the next
// spec that omits it still runs the catalogued default.
func TestParamsDecodeLeavesDefaults(t *testing.T) {
	defaults := func() string {
		data, err := json.Marshal(registry["noise"].newParams())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	before := defaults()
	if err := Validate(Spec{Campaign: "noise", Params: map[string]any{"devs": []any{0.5}}}); err != nil {
		t.Fatal(err)
	}
	if after := defaults(); after != before {
		t.Fatalf("validating a spec rewrote the noise defaults:\n  before %s\n  after  %s", before, after)
	}
}
