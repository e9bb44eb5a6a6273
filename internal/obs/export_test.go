package obs

// ChargeLevel and ChargePhase expose the meter charges that only a Call
// makes, so that tests can check the meter's arithmetic on exact figures.
func (m *Meter) ChargeLevel(lvl int, widths, items, wallUS []int64) {
	m.level(lvl, widths, items, wallUS)
}

func (m *Meter) ChargePhase(l Layer, wallUS int64) { m.phase(l, wallUS) }
