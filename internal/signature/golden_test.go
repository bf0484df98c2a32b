package signature

import (
	"encoding/hex"
	"reflect"
	"testing"
)

// TestBinaryGoldenBytes pins the SIG1 signature readout — the file
// cmd/sigcap -out writes and -in reads back — to fixed bytes in both
// directions: a fixed signature marshals to the checked-in hex, and the
// hex unmarshals back to the same signature.
func TestBinaryGoldenBytes(t *testing.T) {
	sig := &Signature{Period: 200e-6, Entries: []Entry{
		{Code: 0b000100, Dur: 100e-6},
		{Code: 0b000101, Dur: 60e-6},
		{Code: 0b001101, Dur: 40e-6},
	}}
	// Little-endian: magic "SIG1" as uint32, period float64, entry
	// count uint32, then (code uint32, duration float64) per entry.
	const golden = "31474953" + "2d431cebe2362a3f" + "03000000" +
		"04000000" + "2d431cebe2361a3f" +
		"05000000" + "691d554d10750f3f" +
		"0d000000" + "f168e388b5f8043f"
	blob, err := sig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(blob); got != golden {
		t.Fatalf("SIG1 encoding drifted:\n got %s\nwant %s", got, golden)
	}
	raw, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	var back Signature
	if err := back.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, sig) {
		t.Fatalf("SIG1 golden decodes to %+v, want %+v", back, *sig)
	}
}
