package experiment

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"regreloc/internal/node"
	"regreloc/internal/stats"
)

func sampleMeasurements() []Measurement {
	w := &stats.CycleAccount{}
	f := &stats.CycleAccount{}
	for i, a := range stats.Activities() {
		w.Charge(a, int64(100*i+7))
		f.Charge(a, int64(1000*i+13))
	}
	return []Measurement{
		{
			Panel: "F=64", Arch: "flexible", R: 8, L: 16, F: 64,
			Eff: 0.1 + 0.2, // deliberately not exactly representable
			Res: node.Result{
				Name: "flexible", Windowed: w, Full: f,
				Efficiency: math.Nextafter(0.75, 1), Completed: 32,
				AvgResident: 3.9999999999999996, MaxResident: 7,
				AvgWastedRegs: 1.25, Allocs: 11, AllocFails: 2, Deallocs: 9,
				Loads: 40, Unloads: 38, Faults: 123, Probes: 456,
			},
		},
		// Zero-value result with nil accounts (the analytic panel's
		// model-only measurements look like this).
		{Panel: "N-sweep", Arch: "analytic", R: 64, L: 3, F: 128, Eff: 0.5},
	}
}

// TestPointCodecRoundTrip pins the byte-identity contract at the codec
// level: decode(encode(ms)) must reproduce every field exactly —
// including float bit patterns and cycle accounts — because a report
// assembled from stored points is compared byte-for-byte against a
// cold run.
func TestPointCodecRoundTrip(t *testing.T) {
	in := sampleMeasurements()
	out, err := decodeMeasurements(FidelitySim, encodeMeasurements(FidelitySim, in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip not exact:\n in: %+v\nout: %+v", in, out)
	}
	// Empty point (a cell can legitimately produce no measurements).
	if out, err := decodeMeasurements(FidelitySim, encodeMeasurements(FidelitySim, nil)); err != nil || len(out) != 0 {
		t.Fatalf("empty round trip = %v, %v", out, err)
	}
}

// TestPointCodecRejectsDamage checks the decoder fails loudly instead
// of misreading: wrong version, truncation at any prefix, and trailing
// bytes are all errors (the engine then recomputes the point).
func TestPointCodecRejectsDamage(t *testing.T) {
	data := encodeMeasurements(FidelitySim, sampleMeasurements())
	if _, err := decodeMeasurements(FidelitySim, nil); err == nil {
		t.Error("empty input accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] = pointCodecVersion + 1
	if _, err := decodeMeasurements(FidelitySim, bad); err == nil {
		t.Error("foreign codec version accepted")
	}
	for _, cut := range []int{1, 2, len(data) / 2, len(data) - 1} {
		if _, err := decodeMeasurements(FidelitySim, data[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := decodeMeasurements(FidelitySim, append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// A negative cycle count is an error, not a panic in Charge.
	if _, err := decodeMeasurements(FidelitySim, entryWithCharge(1)); err != nil {
		t.Fatalf("the damaged entry's well-formed twin was rejected: %v", err)
	}
	if _, err := decodeMeasurements(FidelitySim, entryWithCharge(-1)); err == nil {
		t.Error("negative cycle count accepted")
	}
}

// entryWithCharge hand-encodes one sim measurement whose windowed
// account charges n cycles to the first activity. It is well formed
// for n >= 0; no encoder writes n < 0.
func entryWithCharge(n int64) []byte {
	buf := []byte{pointCodecVersion, tierTag(FidelitySim)}
	buf = binary.AppendUvarint(buf, 1) // one measurement
	buf = appendString(buf, "F=64")
	buf = appendString(buf, "fixed")
	for _, v := range []int64{8, 16, 64} { // R, L, F
		buf = binary.AppendVarint(buf, v)
	}
	buf = appendFloat(buf, 0.5)
	buf = appendString(buf, "fixed")
	buf = append(buf, 1) // windowed account present
	for i := range stats.Activities() {
		v := int64(10)
		if i == 0 {
			v = n
		}
		buf = binary.AppendVarint(buf, v)
	}
	buf = append(buf, 0)               // no full account
	buf = appendFloat(buf, 0.5)        // efficiency
	buf = binary.AppendVarint(buf, 32) // completed
	buf = appendFloat(buf, 4)          // avg resident
	buf = binary.AppendVarint(buf, 7)  // max resident
	buf = appendFloat(buf, 1)          // avg wasted regs
	for range 7 {                      // allocs .. probes
		buf = binary.AppendVarint(buf, 0)
	}
	return buf
}

// FuzzDecodeMeasurements: decoding never panics, and an accepted entry
// re-encodes to bytes that decode and re-encode to themselves. (An
// accepted entry need not re-encode to its own bytes: a varint may
// arrive longer than the encoder writes it.) The committed seeds under
// testdata/fuzz are one valid entry per tier and entryWithCharge(-1).
func FuzzDecodeMeasurements(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fid := range []Fidelity{FidelitySim, FidelityMachine, FidelityAnalytic} {
			ms, err := decodeMeasurements(fid, data)
			if err != nil {
				continue
			}
			once := encodeMeasurements(fid, ms)
			again, err := decodeMeasurements(fid, once)
			if err != nil {
				t.Fatalf("%s: re-encoded entry rejected: %v", fid, err)
			}
			if twice := encodeMeasurements(fid, again); !bytes.Equal(once, twice) {
				t.Fatalf("%s: encoding is not stable:\n once: %x\ntwice: %x", fid, once, twice)
			}
		}
	})
}

// TestPointCodecCoversResultFields freezes the field inventories the
// codec encodes. If Measurement or node.Result gain a field, this test
// fails until the codec is extended and pointCodecVersion + pointSchema
// are bumped — silently dropping a new field would make "cache hit"
// and "cold run" reports diverge.
func TestPointCodecCoversResultFields(t *testing.T) {
	if n := reflect.TypeOf(Measurement{}).NumField(); n != 7 {
		t.Errorf("Measurement has %d fields, codec encodes 7: extend the codec and bump pointCodecVersion", n)
	}
	if n := reflect.TypeOf(node.Result{}).NumField(); n != 15 {
		t.Errorf("node.Result has %d fields, codec encodes 15: extend the codec and bump pointCodecVersion", n)
	}
	if n := len(stats.Activities()); n != 9 {
		t.Errorf("stats has %d activities, codec assumes 9: bump pointCodecVersion", n)
	}
}
