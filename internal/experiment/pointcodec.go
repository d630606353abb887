package experiment

import (
	"encoding/binary"
	"fmt"
	"math"

	"regreloc/internal/stats"
)

// This file is the point store's value codec: one sweep point's
// []Measurement to bytes and back, exactly. "Exactly" is load-bearing
// — a report assembled from memoized points must be byte-identical to
// a cold run, so every field round-trips losslessly: floats travel as
// their IEEE-754 bit patterns (never through decimal formatting), and
// the cycle accounts are copied activity by activity. The format is
// versioned; decodeMeasurements rejects foreign versions so a decode
// can never silently misread (point keys already embed the engine
// version, making a version mismatch corruption, not staleness).

// pointCodecVersion is the first byte of every encoded entry. Bump it
// together with pointSchema whenever Measurement or node.Result gain
// or change fields (TestPointCodecCoversResultFields enforces the
// field inventory). v2 added the fidelity tier tag as the second
// byte.
const pointCodecVersion = 2

// tierTag maps a fidelity tier to the codec's one-byte tag. The tag
// is defence in depth: point keys already separate tiers, so a tag
// mismatch at decode time means a corrupted or mis-addressed store —
// decodeMeasurements rejects it rather than silently serving one
// tier's numbers as another's.
func tierTag(fid Fidelity) byte {
	switch fid {
	case FidelityMachine:
		return 2
	case FidelityAnalytic:
		return 3
	default: // FidelitySim and the zero value
		return 1
	}
}

// encodeMeasurements serializes one point's measurements, tagged with
// the tier that produced them.
func encodeMeasurements(fid Fidelity, ms []Measurement) []byte {
	// Typical entry: one or two measurements, short strings; 64 bytes
	// of headroom per measurement avoids regrowth.
	buf := make([]byte, 0, 2+10+len(ms)*192)
	buf = append(buf, pointCodecVersion, tierTag(fid))
	buf = binary.AppendUvarint(buf, uint64(len(ms)))
	for i := range ms {
		buf = appendMeasurement(buf, &ms[i])
	}
	return buf
}

func appendMeasurement(buf []byte, m *Measurement) []byte {
	buf = appendString(buf, m.Panel)
	buf = appendString(buf, m.Arch)
	buf = binary.AppendVarint(buf, int64(m.R))
	buf = binary.AppendVarint(buf, int64(m.L))
	buf = binary.AppendVarint(buf, int64(m.F))
	buf = appendFloat(buf, m.Eff)

	buf = appendString(buf, m.Res.Name)
	buf = appendAccount(buf, m.Res.Windowed)
	buf = appendAccount(buf, m.Res.Full)
	buf = appendFloat(buf, m.Res.Efficiency)
	buf = binary.AppendVarint(buf, int64(m.Res.Completed))
	buf = appendFloat(buf, m.Res.AvgResident)
	buf = binary.AppendVarint(buf, int64(m.Res.MaxResident))
	buf = appendFloat(buf, m.Res.AvgWastedRegs)
	for _, v := range []int64{m.Res.Allocs, m.Res.AllocFails, m.Res.Deallocs,
		m.Res.Loads, m.Res.Unloads, m.Res.Faults, m.Res.Probes} {
		buf = binary.AppendVarint(buf, v)
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// appendAccount encodes a cycle account as a presence flag plus one
// varint per activity, in Activities() order.
func appendAccount(buf []byte, acc *stats.CycleAccount) []byte {
	if acc == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	for _, a := range stats.Activities() {
		buf = binary.AppendVarint(buf, acc.Get(a))
	}
	return buf
}

// decoder walks an encoded entry; the first decoding error sticks and
// poisons every later read, so call sites check err once at the end.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("experiment: point entry truncated at %s", what)
	}
}

func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) str(what string) string {
	n := d.uvarint(what)
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)) < n {
		d.fail(what)
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) float(what string) float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail(what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) byteVal(what string) byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) == 0 {
		d.fail(what)
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) account(what string) *stats.CycleAccount {
	switch d.byteVal(what) {
	case 0:
		return nil
	case 1:
		acc := &stats.CycleAccount{}
		for _, a := range stats.Activities() {
			n := d.varint(what)
			if d.err == nil && n < 0 {
				// Charge panics on a negative count; no encoder writes one.
				d.err = fmt.Errorf("experiment: point entry has negative %s cycle count %d for %v", what, n, a)
			}
			if d.err != nil {
				return nil
			}
			acc.Charge(a, n)
		}
		return acc
	default:
		d.fail(what + " presence flag")
		return nil
	}
}

// decodeMeasurements is encodeMeasurements' exact inverse. The caller
// states the tier it expects; an entry tagged with any other tier is
// rejected, so an analytic point can never decode into a sim report
// (or vice versa) even if a store were mis-addressed.
func decodeMeasurements(fid Fidelity, data []byte) ([]Measurement, error) {
	if len(data) == 0 || data[0] != pointCodecVersion {
		return nil, fmt.Errorf("experiment: point entry codec version mismatch")
	}
	if len(data) < 2 {
		return nil, fmt.Errorf("experiment: point entry truncated at tier tag")
	}
	if data[1] != tierTag(fid) {
		return nil, fmt.Errorf("experiment: point entry fidelity mismatch: tag %d, want %d (%s)",
			data[1], tierTag(fid), fid)
	}
	d := &decoder{buf: data[2:]}
	n := d.uvarint("count")
	if d.err != nil {
		return nil, d.err
	}
	if n > uint64(len(d.buf)) { // each measurement takes >1 byte
		return nil, fmt.Errorf("experiment: point entry count %d implausible for %d bytes", n, len(d.buf))
	}
	ms := make([]Measurement, n)
	for i := range ms {
		m := &ms[i]
		m.Panel = d.str("panel")
		m.Arch = d.str("arch")
		m.R = int(d.varint("r"))
		m.L = int(d.varint("l"))
		m.F = int(d.varint("f"))
		m.Eff = d.float("eff")

		m.Res.Name = d.str("name")
		m.Res.Windowed = d.account("windowed")
		m.Res.Full = d.account("full")
		m.Res.Efficiency = d.float("efficiency")
		m.Res.Completed = int(d.varint("completed"))
		m.Res.AvgResident = d.float("avg_resident")
		m.Res.MaxResident = int(d.varint("max_resident"))
		m.Res.AvgWastedRegs = d.float("avg_wasted_regs")
		for _, p := range []*int64{&m.Res.Allocs, &m.Res.AllocFails, &m.Res.Deallocs,
			&m.Res.Loads, &m.Res.Unloads, &m.Res.Faults, &m.Res.Probes} {
			*p = d.varint("op count")
		}
		if d.err != nil {
			return nil, d.err
		}
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("experiment: point entry has %d trailing bytes", len(d.buf))
	}
	return ms, nil
}
