// Package flow is the ldpflow fixture: a miniature est package with a
// raw Tuple type, a wire Report type, and a Perturb mechanism, plus
// client-path functions that leak, sanitize, or hand off raw values.
package flow

import (
	"fmt"
)

// Tuple mirrors est.Tuple: one user's raw, pre-perturbation record.
type Tuple struct {
	Values []float64
	Cats   []int
}

// Report mirrors est.Report: the wire unit.
type Report struct {
	Dims   []uint32
	Values []float64
}

// Mech is a stand-in randomizer.
type Mech struct{ Eps float64 }

// Perturb is the sanitizer: its result is a releasable value.
func (m Mech) Perturb(v, eps float64) float64 { return v + eps }

// LogRaw leaks a raw value straight into output.
func LogRaw(t Tuple) {
	fmt.Println(t.Values[0]) // want "raw tuple value reaches fmt.Println"
}

// LogDerived leaks through a local and arithmetic.
func LogDerived(t Tuple) {
	v := t.Values[0]
	sum := v * 2
	fmt.Printf("%v\n", sum) // want "raw tuple value reaches fmt.Printf"
}

// LogPerturbed is clean: the value passed a randomizer.
func LogPerturbed(m Mech, t Tuple) {
	p := m.Perturb(t.Values[0], 1)
	fmt.Println(p)
}

// LeakReport builds the wire unit from raw values: the deliberately
// injected unsanitized source→sink flow.
func LeakReport(t Tuple) Report {
	var rep Report
	rep.Values = t.Values
	return rep // want "est.Report built from raw tuple values"
}

// MakeReport is the legitimate client half: every released value
// passes Perturb.
func MakeReport(m Mech, t Tuple) Report {
	rep := Report{Values: make([]float64, len(t.Values))}
	for i, v := range t.Values {
		rep.Values[i] = m.Perturb(v, 0.5)
	}
	return rep
}

// logValue pipes its argument to output; only callers with raw
// arguments are findings.
func logValue(v float64) {
	fmt.Println(v)
}

// LogThroughHelper leaks interprocedurally through logValue.
func LogThroughHelper(t Tuple) {
	logValue(t.Values[1]) // want "flows into logValue"
}

func id(v float64) float64 { return v }

// LogThroughIdentity leaks through a taint-preserving helper result.
func LogThroughIdentity(t Tuple) {
	fmt.Println(id(t.Values[0])) // want "raw tuple value reaches fmt.Println"
}

// Validate leaks a raw value into an error string.
func Validate(t Tuple) error {
	for _, v := range t.Values {
		if v > 1 {
			return fmt.Errorf("value %v out of range", v) // want "raw tuple value reaches fmt.Errorf"
		}
	}
	return nil
}

// LogMaybe is tainted on one branch only; may-semantics still flags
// the join.
func LogMaybe(t Tuple, b bool) {
	v := 0.0
	if b {
		v = t.Values[0]
	}
	fmt.Println(v) // want "raw tuple value reaches fmt.Println"
}

// LogSuppressed documents an intentional exception.
func LogSuppressed(t Tuple) {
	//hdrvet:ignore ldpflow -- fixture: documented offline debug path
	fmt.Println(t.Values[0])
}

// LogLen releases shape, not values: clean.
func LogLen(t Tuple) {
	fmt.Println(len(t.Values))
}

// Batcher is a batch randomizer reached through an interface: every
// value it stores in dst is a randomized release of src.
type Batcher interface {
	PerturbBatch(dst, src []float64)
}

// Gatherer is the indexed batch randomizer, as the client path reaches
// ldp.PerturbBatch: dst[i] is a randomized release of src[idx[i]].
type Gatherer interface {
	PerturbBatch(dst, src []float64, idx []uint32)
}

// Filler is an opaque batch step that is not a randomizer: the
// analyzer cannot see its body, so it may store src in dst.
type Filler interface {
	Fill(dst, src []float64)
}

// BatchReport gathers the raw values into a stack buffer and releases
// them through the batch randomizer: clean.
func BatchReport(b Batcher, t Tuple) Report {
	var raw [4]float64
	for i := range raw {
		raw[i] = t.Values[i]
	}
	rep := Report{Values: make([]float64, len(raw))}
	b.PerturbBatch(rep.Values, raw[:])
	return rep
}

// SampledReport releases the sampled raw values where they stand in the
// tuple through the indexed batch randomizer: clean.
func SampledReport(g Gatherer, t Tuple, idx []uint32) Report {
	rep := Report{Dims: idx, Values: make([]float64, len(idx))}
	g.PerturbBatch(rep.Values, t.Values, idx)
	return rep
}

// CopyReport skips the randomizer and copies the gathered raw values
// into the report.
func CopyReport(t Tuple) Report {
	var raw [4]float64
	for i := range raw {
		raw[i] = t.Values[i]
	}
	rep := Report{Values: make([]float64, len(raw))}
	copy(rep.Values, raw[:])
	return rep // want "est.Report built from raw tuple values"
}

// FillReport hands the raw values to an opaque batch step instead.
func FillReport(f Filler, t Tuple) Report {
	rep := Report{Values: make([]float64, len(t.Values))}
	f.Fill(rep.Values, t.Values)
	return rep // want "est.Report built from raw tuple values"
}

// gather stores src into dst.
func gather(dst, src []float64) {
	for i, v := range src {
		dst[i] = v
	}
}

// GatherReport stores the raw values through an in-package helper.
func GatherReport(t Tuple) Report {
	rep := Report{Values: make([]float64, len(t.Values))}
	gather(rep.Values, t.Values)
	return rep // want "est.Report built from raw tuple values"
}

// Calibrator mirrors est.Calibrator: the estimator core reaches each
// family's MakeReport through it, so no call site names an
// implementation.
type Calibrator interface {
	MakeReport(t Tuple) (Report, error)
}

// Core mirrors est.Family: its Observe dispatches through the
// interface, which is a report boundary, so the call is clean.
type Core struct{ cal Calibrator }

func (c Core) Observe(t Tuple) (Report, error) { return c.cal.MakeReport(t) }

// errCal is a family's calibrator whose range error names the raw
// value: the sink line and the boundary declaration are findings.
type errCal struct{ m Mech }

func (c errCal) MakeReport(t Tuple) (Report, error) { // want "output sink inside MakeReport, a report boundary"
	if t.Values[0] > 1 {
		return Report{}, fmt.Errorf("value %v out of range", t.Values[0]) // want "raw tuple value reaches fmt.Errorf"
	}
	return Report{Values: []float64{c.m.Perturb(t.Values[0], 1)}}, nil
}

// logCal leaks through an in-package helper instead.
type logCal struct{ m Mech }

func (c logCal) MakeReport(t Tuple) (Report, error) { // want "output sink inside MakeReport, a report boundary"
	logValue(t.Values[0]) // want "flows into logValue"
	return Report{Values: []float64{c.m.Perturb(t.Values[0], 1)}}, nil
}

// dimCal names only the dimension in its error: clean.
type dimCal struct{ m Mech }

func (c dimCal) MakeReport(t Tuple) (Report, error) {
	if t.Values[0] > 1 {
		return Report{}, fmt.Errorf("dimension %d out of range", 0)
	}
	return Report{Values: []float64{c.m.Perturb(t.Values[0], 1)}}, nil
}
