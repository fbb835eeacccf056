package control

// PID is a discrete proportional–integral–derivative regulator with output
// clamping and conditional-integration anti-windup. It is integer-tick and
// RNG-free: calling Update with the same error sequence always produces the
// same output sequence, bit for bit.
//
// Sign convention (shared by the whole package): the error fed to Update is
// pv − setpoint, and the output is the ventilation damper position in
// [Min, Max]. A tent that is too warm (positive error) therefore drives the
// damper open; a tent that is too cold drives it closed.
type PID struct {
	// Kp, Ki and Kd are the proportional, integral and derivative gains,
	// in output units per °C (Ki per °C·tick, Kd per °C/tick).
	Kp, Ki, Kd float64
	// Min and Max clamp the output; the integrator is only advanced when
	// doing so does not push the output further into saturation.
	Min, Max float64

	integ    float64
	prevE    float64
	havePrev bool
}

// Update advances the regulator by one tick and returns the clamped output.
func (p *PID) Update(e float64) float64 {
	var d float64
	if p.havePrev {
		d = e - p.prevE
	}
	p.prevE, p.havePrev = e, true
	u := p.Kp*e + p.integ + p.Kd*d
	switch {
	case u > p.Max:
		// Saturated high: integrate only errors that pull back down.
		if e < 0 {
			p.integ += p.Ki * e
		}
		return p.Max
	case u < p.Min:
		if e > 0 {
			p.integ += p.Ki * e
		}
		return p.Min
	default:
		p.integ += p.Ki * e
		return u
	}
}

// Observe records the error for derivative continuity without integrating
// or producing an output. The supervisor calls this while an override (dew
// guard, stuck-damper fallback) is driving the actuator, so the integrator
// does not wind up against a loop it is not closing.
func (p *PID) Observe(e float64) {
	p.prevE, p.havePrev = e, true
}

// Bumpless reinitialises the integrator so that the next Update(e) returns
// approximately target: handing the loop back after an override then moves
// the damper from where the override left it, not from a stale integral.
// The integrator may legitimately go negative here (it is cancelling the
// proportional term); only the output is clamped.
func (p *PID) Bumpless(target, e float64) {
	p.integ = target - p.Kp*e
	p.prevE, p.havePrev = e, true
}

// Hysteresis is a bang-bang regulator with a symmetric deadband: the output
// switches to High when the error exceeds +Deadband, to Low when it falls
// below −Deadband, and otherwise holds its previous value. It is the
// "operator with a thermometer" baseline the paper actually ran — open the
// tent when it gets warm, close it when it gets cold — against which the
// PID loop is compared.
type Hysteresis struct {
	// Deadband is the half-width of the hold region, in °C of error.
	Deadband float64
	// Low and High are the two output levels.
	Low, High float64

	out  float64
	init bool
}

// Update advances the switch by one tick. Before the first threshold
// crossing the output is Low.
func (h *Hysteresis) Update(e float64) float64 {
	if !h.init {
		h.out = h.Low
		h.init = true
	}
	switch {
	case e > h.Deadband:
		h.out = h.High
	case e < -h.Deadband:
		h.out = h.Low
	}
	return h.out
}
