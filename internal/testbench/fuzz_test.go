package testbench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/biquad"
)

// FuzzShardBlobUnmarshal throws arbitrary bytes at every shard
// accumulator codec the fabric trusts across process and machine
// boundaries. Each codec must reject what it cannot prove well-formed
// and, for anything it accepts, reach a canonical fixed point in one
// round: Unmarshal → Marshal → Unmarshal reproduces the accumulator,
// and the second Marshal reproduces the first's bytes. Without that, a
// resumed or sharded campaign could silently drift from its checkpoint.
func FuzzShardBlobUnmarshal(f *testing.F) {
	yr := yieldReducer()
	yieldSeed, err := yr.Marshal(yieldCounts{trueGood: 220, pass: 230, escapes: 17, overkill: 7})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(yieldSeed)
	fr := faultReducer()
	faultSeed, err := fr.Marshal([]FaultCase{{Fault: biquad.Fault{Frac: 0.5}, NDF: 0.42, Detected: true}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(faultSeed)
	// Well-formed counters under a magic neither codec owns: both
	// decoders must reject them.
	f.Add([]byte("MCD1{"))
	f.Add([]byte("MCY1"))
	f.Add([]byte("MCF1[]"))
	f.Add([]byte("MCD1\x00"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if counts, err := yr.Unmarshal(data); err == nil {
			blob, err := yr.Marshal(counts)
			if err != nil {
				t.Fatalf("yield: accepted counts failed to re-marshal: %v", err)
			}
			again, err := yr.Unmarshal(blob)
			if err != nil || again != counts {
				t.Fatalf("yield: round trip %+v -> %+v (%v)", counts, again, err)
			}
			if !bytes.Equal(blob, data) {
				t.Fatalf("yield: accepted non-canonical encoding (%d bytes -> %d)", len(data), len(blob))
			}
		}
		if cases, err := fr.Unmarshal(data); err == nil {
			blob, err := fr.Marshal(cases)
			if err != nil {
				t.Fatalf("faults: accepted cases failed to re-marshal: %v", err)
			}
			again, err := fr.Unmarshal(blob)
			if err != nil {
				t.Fatalf("faults: canonical form rejected: %v", err)
			}
			blob2, err := fr.Marshal(again)
			if err != nil {
				t.Fatalf("faults: second re-marshal: %v", err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Fatal("faults: no canonical fixed point after one round")
			}
		}
	})
}

// decodeSpec decodes a spec body exactly as the HTTP service and the
// fabric do: strictly, unknown fields rejected.
func decodeSpec(data []byte) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// FuzzSpecDecode throws arbitrary bytes at the public ingress — the JSON
// spec body mcserved and the fabric accept — and judges what decodes
// with Validate and compile, without running anything. Nothing may
// panic; every spec Validate accepts must compile; and every accepted
// spec must reach a fixed point in one round: its effective spec
// (params typed and default-filled) re-encodes to JSON that decodes,
// validates and compiles to the same effective spec. Without that, a
// result's recorded spec would not reproduce the run it describes.
// The seed corpus (testdata/fuzz/FuzzSpecDecode) holds one valid spec
// per registered campaign plus the bodies the HTTP service must reject;
// the specs that could exhaust a server (exhaustingSpecs) join it here.
func FuzzSpecDecode(f *testing.F) {
	for _, body := range exhaustingSpecs() {
		f.Add([]byte(body.json))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(data)
		if err != nil {
			return
		}
		if Validate(spec) != nil {
			return
		}
		_, _, eff, _, err := compile(spec)
		if err != nil {
			t.Fatalf("Validate accepted a spec compile rejects: %v\n%s", err, data)
		}
		again, err := json.Marshal(eff)
		if err != nil {
			t.Fatalf("effective spec does not encode: %v", err)
		}
		spec2, err := decodeSpec(again)
		if err != nil {
			t.Fatalf("re-encoded spec does not decode: %v\n%s", err, again)
		}
		if err := Validate(spec2); err != nil {
			t.Fatalf("re-encoded spec fails validation: %v\n%s", err, again)
		}
		_, _, eff2, _, err := compile(spec2)
		if err != nil {
			t.Fatalf("re-encoded spec does not compile: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(eff, eff2) {
			t.Fatalf("effective spec not a fixed point:\n%+v\n%+v", eff, eff2)
		}
	})
}
