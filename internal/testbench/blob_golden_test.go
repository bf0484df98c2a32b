package testbench

import (
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/biquad"
)

// TestShardBlobGoldenBytes pins the MCY1 (yield) and MCF1 (faults)
// shard blobs, the accumulator encodings the durable fabric writes into
// job-log checkpoints and shard reports, to fixed bytes in both
// directions: a fixed accumulator marshals to the checked-in hex, and
// the hex unmarshals back to the same accumulator. A codec change that
// would stop a store written by an older binary from replaying fails
// here first.
func TestShardBlobGoldenBytes(t *testing.T) {
	yield := yieldCounts{trueGood: 220, pass: 230, escapes: 17, overkill: 7}
	const yieldHex = "4d435931" + "dc01" + "e601" + "11" + "07" // "MCY1", uvarints 220 230 17 7
	yr := yieldReducer()
	blob, err := yr.Marshal(yield)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(blob); got != yieldHex {
		t.Fatalf("MCY1 encoding drifted:\n got %s\nwant %s", got, yieldHex)
	}
	gotYield, err := yr.Unmarshal(mustHex(t, yieldHex))
	if err != nil || gotYield != yield {
		t.Fatalf("MCY1 golden decodes to %+v (%v), want %+v", gotYield, err, yield)
	}

	faults := []FaultCase{
		{
			Fault:    biquad.Fault{Kind: biquad.FaultParametric, Target: biquad.TargetR, Frac: -0.1},
			Params:   biquad.Params{F0: 1234.5, Q: 0.707, Gain: 1.5},
			NDF:      0.123456789,
			Detected: true,
		},
		{Fault: biquad.Fault{Kind: biquad.FaultOpen, Target: biquad.TargetC}},
	}
	// "MCF1" followed by the JSON array
	// [{"Fault":{"Kind":0,"Target":0,"Frac":-0.1},"Params":{"F0":1234.5,"Q":0.707,"Gain":1.5},"NDF":0.123456789,"Detected":true},
	//  {"Fault":{"Kind":1,"Target":3,"Frac":0},"Params":{"F0":0,"Q":0,"Gain":0},"NDF":0,"Detected":false}]
	const faultHex = "4d434631" +
		"5b7b224661756c74223a7b224b696e64223a302c22546172676574223a302c2246726163223a2d302e317d2c" +
		"22506172616d73223a7b224630223a313233342e352c2251223a302e3730372c224761696e223a312e357d2c" +
		"224e4446223a302e3132333435363738392c224465746563746564223a747275657d2c" +
		"7b224661756c74223a7b224b696e64223a312c22546172676574223a332c2246726163223a307d2c" +
		"22506172616d73223a7b224630223a302c2251223a302c224761696e223a307d2c" +
		"224e4446223a302c224465746563746564223a66616c73657d5d"
	fr := faultReducer()
	blob, err = fr.Marshal(faults)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(blob); got != faultHex {
		t.Fatalf("MCF1 encoding drifted:\n got %s\nwant %s", got, faultHex)
	}
	gotFaults, err := fr.Unmarshal(mustHex(t, faultHex))
	if err != nil || !reflect.DeepEqual(gotFaults, faults) {
		t.Fatalf("MCF1 golden decodes to %+v (%v), want %+v", gotFaults, err, faults)
	}
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
