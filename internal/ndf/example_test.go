package ndf_test

import (
	"fmt"

	"repro/internal/ndf"
	"repro/internal/signature"
)

// Eq. 2 of the paper: the NDF is the time-weighted average Hamming
// distance between the observed and golden zone codes. Here the observed
// signature lingers 10% of the period in a neighbouring (1-bit) zone.
func ExampleNDF() {
	golden := &signature.Signature{Period: 200e-6, Entries: []signature.Entry{
		{Code: 0b000100, Dur: 100e-6},
		{Code: 0b000101, Dur: 100e-6},
	}}
	observed := &signature.Signature{Period: 200e-6, Entries: []signature.Entry{
		{Code: 0b000100, Dur: 120e-6},
		{Code: 0b000101, Dur: 80e-6},
	}}
	v, err := ndf.NDF(observed, golden)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("NDF = %.2f\n", v)
	// Output:
	// NDF = 0.10
}
