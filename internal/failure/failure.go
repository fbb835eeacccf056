// Package failure is frostlab's reliability engine. It turns the paper's
// observed failure statistics into generative models:
//
//   - host-level transient system failures (§4.2.1: two on host 15, none in
//     the control group — 5.6 % of hosts, vs Intel's reported 4.46 %);
//   - pre-existing defect populations (vendor B's known-bad series, the
//     whining network switches that failed identically indoors and out);
//   - environmental stress factors (heat, thermal cycling, extreme
//     humidity, condensation) — deliberately calibrated so that plain cold
//     and high RH add little or nothing, which is the paper's headline
//     negative result;
//   - non-ECC memory soft errors at the paper's estimated rate of roughly
//     one corrupted page per 570 million page operations (§4.2.2).
//
// All sampling draws from named simkernel RNG streams, so experiment runs
// are reproducible.
package failure

import (
	"fmt"
	"math"
	"time"

	"frostlab/internal/simkernel"
	"frostlab/internal/units"
)

// Stress is the environmental input to the hazard model for one host and
// one step.
type Stress struct {
	// Ambient is the air temperature around the machine.
	Ambient units.Celsius
	// RH is the ambient relative humidity.
	RH units.RelHumidity
	// CaseAir is the air temperature inside the case.
	CaseAir units.Celsius
	// TempRatePerHour is |d(ambient)/dt| in °C/h — thermal cycling.
	TempRatePerHour float64
	// Condensing reports whether condensation is predicted on the
	// equipment surfaces (see units.CondensationRisk).
	Condensing bool
}

// Params calibrates the engine. The defaults in DefaultParams reproduce the
// paper's statistics in expectation.
type Params struct {
	// BaseTransientPerHour is the healthy-host transient failure hazard.
	BaseTransientPerHour float64
	// WeakTransientPerHour is the hazard of a "weak" individual from a
	// defective series.
	WeakTransientPerHour float64
	// WeakFractionDefective is the probability that a unit from a
	// known-defective series (vendor B) is weak.
	WeakFractionDefective float64
	// WeakFractionHealthy is the same lottery for ordinary units.
	WeakFractionHealthy float64

	// HotCaseThreshold and HotCasePerDegree add hazard when case air runs
	// hot — vendor B's actual defect mechanism (bad airflow).
	HotCaseThreshold units.Celsius
	HotCasePerDegree float64
	// CyclingPerDegreePerHour adds hazard per °C/h of ambient swing.
	CyclingPerDegreePerHour float64
	// ExtremeRHThreshold and ExtremeRHFactor add (mild) hazard above the
	// threshold. The paper found RH of 80–90 % not a certified failure
	// cause, so the default factor is small.
	ExtremeRHThreshold units.RelHumidity
	ExtremeRHFactor    float64
	// CondensationFactor multiplies hazard while condensing. Condensation
	// is the one humidity mechanism §5 takes seriously.
	CondensationFactor float64

	// WhinySwitchMTBF is the mean life of the defective switches; §4.2.1:
	// "both of the switches encountered a failure after a week or so".
	WhinySwitchMTBF time.Duration
	// HealthySwitchMTBF is the mean life of a sound switch.
	HealthySwitchMTBF time.Duration

	// PageFailureRate is the per-page-operation probability of a memory
	// soft error on non-ECC hardware; §4.2.2 estimates "around one in 570
	// million".
	PageFailureRate float64
}

// DefaultParams returns the calibration used by the reference experiment.
func DefaultParams() Params {
	return Params{
		BaseTransientPerHour:  1.2e-5, // ≈ 0.1 expected events per 10k host-hours
		WeakTransientPerHour:  3.5e-3, // a weak unit fails about weekly-to-fortnightly
		WeakFractionDefective: 0.35,
		WeakFractionHealthy:   0.008,

		HotCaseThreshold:        45,
		HotCasePerDegree:        0.08,
		CyclingPerDegreePerHour: 0.01,
		ExtremeRHThreshold:      92,
		ExtremeRHFactor:         1.1,
		CondensationFactor:      25,

		WhinySwitchMTBF:   170 * time.Hour, // "after a week or so"
		HealthySwitchMTBF: 10 * 365 * 24 * time.Hour,

		PageFailureRate: 1.0 / 570e6,
	}
}

// WeakFraction returns the weak-unit lottery probability for a unit that
// is (or is not) from a known-defective series.
func (p Params) WeakFraction(knownDefective bool) float64 {
	if knownDefective {
		return p.WeakFractionDefective
	}
	return p.WeakFractionHealthy
}

// StressMultiplier returns the environmental hazard multiplier for the
// given stress. The transient hazard is the weak-or-base rate times this
// factor; exposing it lets the sharded scale engine compute one multiplier
// per tent-tick and share it across every host under that envelope.
func (p Params) StressMultiplier(s Stress) float64 {
	mult := 1.0
	if s.CaseAir > p.HotCaseThreshold {
		mult += p.HotCasePerDegree * float64(s.CaseAir-p.HotCaseThreshold)
	}
	mult += p.CyclingPerDegreePerHour * s.TempRatePerHour
	if s.RH > p.ExtremeRHThreshold {
		mult *= p.ExtremeRHFactor
	}
	if s.Condensing {
		mult *= p.CondensationFactor
	}
	return mult
}

// TransientHazardPerHour returns a host's transient hazard under stress,
// with the same float operation order as Engine stepping.
func (p Params) TransientHazardPerHour(weak bool, s Stress) float64 {
	h := p.BaseTransientPerHour
	if weak {
		h = p.WeakTransientPerHour
	}
	return h * p.StressMultiplier(s)
}

// PageCorruptionProb returns the probability that one workload cycle
// touching the given number of pages on non-ECC memory suffers at least
// one silent corruption.
func (p Params) PageCorruptionProb(pages int64) float64 {
	if pages <= 0 {
		return 0
	}
	return 1 - powOneMinus(p.PageFailureRate, pages)
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.BaseTransientPerHour < 0 || p.WeakTransientPerHour < p.BaseTransientPerHour {
		return fmt.Errorf("failure: transient hazards inconsistent: base %v, weak %v",
			p.BaseTransientPerHour, p.WeakTransientPerHour)
	}
	if p.WeakFractionDefective < 0 || p.WeakFractionDefective > 1 ||
		p.WeakFractionHealthy < 0 || p.WeakFractionHealthy > 1 {
		return fmt.Errorf("failure: weak fractions out of [0,1]")
	}
	if p.WhinySwitchMTBF <= 0 || p.HealthySwitchMTBF <= 0 {
		return fmt.Errorf("failure: switch MTBFs must be positive")
	}
	if p.PageFailureRate < 0 || p.PageFailureRate > 1 {
		return fmt.Errorf("failure: page failure rate %v out of [0,1]", p.PageFailureRate)
	}
	return nil
}

// hostRec is the engine's per-host state: the weak-unit lottery outcome and
// the host's RNG stream names, interned at registration so the per-step
// draws (every host, every failure tick and workload cycle) concatenate no
// strings. The names are identical to the previous ad-hoc concatenations,
// so the draw sequences are unchanged.
type hostRec struct {
	weak      bool
	sysStream string // "host/"+id
	memStream string // "mem/"+id
}

// Engine samples failures. Create with NewEngine; register each subject
// before stepping it.
type Engine struct {
	params Params
	rng    *simkernel.RNG
	hosts  map[string]*hostRec
	// diskStreams interns "disk/"+diskID per drive on first step.
	diskStreams map[string]string
}

// NewEngine returns an engine with the given calibration.
func NewEngine(params Params, rng *simkernel.RNG) (*Engine, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		params:      params,
		rng:         rng,
		hosts:       make(map[string]*hostRec),
		diskStreams: make(map[string]string),
	}, nil
}

// RegisterHost runs the weak-unit lottery for a host. knownDefective marks
// units from vendor B's bad series. Registering twice is a no-op and keeps
// the first draw.
func (e *Engine) RegisterHost(hostID string, knownDefective bool) {
	if _, done := e.hosts[hostID]; done {
		return
	}
	e.hosts[hostID] = &hostRec{
		weak:      e.rng.Bernoulli("weak/"+hostID, e.params.WeakFraction(knownDefective)),
		sysStream: "host/" + hostID,
		memStream: "mem/" + hostID,
	}
}

// hazardPerHour computes a host's current transient hazard.
func (e *Engine) hazardPerHour(rec *hostRec, s Stress) float64 {
	return e.params.TransientHazardPerHour(rec.weak, s)
}

// StepHost advances one host by dt under the given stress and reports
// whether a transient system failure occurred. The caller decides what a
// failure does (crash, reset, relocation); the engine only samples it.
func (e *Engine) StepHost(dt time.Duration, hostID string, s Stress) (bool, error) {
	rec, ok := e.hosts[hostID]
	if !ok {
		return false, fmt.Errorf("failure: host %q not registered", hostID)
	}
	if dt <= 0 {
		return false, fmt.Errorf("failure: non-positive step %v", dt)
	}
	pFail := 1 - expNeg(e.hazardPerHour(rec, s)*dt.Hours())
	return e.rng.Bernoulli(rec.sysStream, pFail), nil
}

// RegisterSwitch draws the lifetime of a network switch. Whining units use
// the short defective MTBF regardless of where they run — §4.2.1's
// conclusion that "the problem is inherent in these individual switches".
// It returns the switch's time to failure.
func (e *Engine) RegisterSwitch(switchID string, whining bool) time.Duration {
	mtbf := e.params.HealthySwitchMTBF
	shape := 1.0
	if whining {
		mtbf = e.params.WhinySwitchMTBF
		// Wear-out shape: the defect progresses, so failures cluster
		// around the MTBF rather than being memoryless.
		shape = 2.5
	}
	hours := e.rng.Weibull("switch/"+switchID, shape, mtbf.Hours())
	return time.Duration(hours * float64(time.Hour))
}

// CycleCorrupted samples whether one workload cycle that touches the given
// number of memory pages suffers a silent corruption. ECC machines never
// corrupt (single-bit errors are corrected); on non-ECC machines each page
// operation fails independently with PageFailureRate.
func (e *Engine) CycleCorrupted(hostID string, pages int64, ecc bool) bool {
	if ecc || pages <= 0 {
		return false
	}
	p := e.params.PageCorruptionProb(pages)
	stream, ok := e.memStream(hostID)
	if !ok {
		stream = "mem/" + hostID // unregistered host: preserve the old name
	}
	return e.rng.Bernoulli(stream, p)
}

// memStream returns a registered host's interned memory stream name.
func (e *Engine) memStream(hostID string) (string, bool) {
	r, ok := e.hosts[hostID]
	if !ok {
		return "", false
	}
	return r.memStream, true
}

// expNeg computes exp(-x); x >= 0.
func expNeg(x float64) float64 { return math.Exp(-x) }

// powOneMinus computes (1-p)^n stably for tiny p and large n via
// exp(n*log1p(-p)).
func powOneMinus(p float64, n int64) float64 {
	if p <= 0 {
		return 1
	}
	if p >= 1 {
		return 0
	}
	return math.Exp(float64(n) * math.Log1p(-p))
}
