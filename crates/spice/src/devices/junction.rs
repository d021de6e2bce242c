//! Shared pn-junction primitives: exponential with overflow guard,
//! depletion charge/capacitance with SPICE `FC` linearization, and the
//! classic `pnjlim` Newton damping rule.

/// Thermal voltage kT/q at 27 °C (SPICE TNOM), volts.
pub const VT_300K: f64 = 0.025852;

/// Junction exponential `exp(v / (n*vt))` with linear continuation above
/// the overflow knee, as in SPICE's `limexp`. Returns `(value, d/dv)`.
pub fn limexp(v: f64, nvt: f64) -> (f64, f64) {
    // Knee chosen so exp stays finite comfortably within f64.
    const MAX_ARG: f64 = 80.0;
    let x = v / nvt;
    if x < MAX_ARG {
        let e = x.exp();
        (e, e / nvt)
    } else {
        let e = MAX_ARG.exp();
        (e * (1.0 + (x - MAX_ARG)), e / nvt)
    }
}

/// Diode-law current and conductance: `i = is*(exp(v/(n*vt)) - 1) + gmin*v`.
///
/// The `gmin` leak keeps the Jacobian nonsingular at deep reverse bias.
pub fn diode_current(v: f64, is_: f64, nvt: f64, gmin: f64) -> (f64, f64) {
    let (e, de) = limexp(v, nvt);
    let i = is_ * (e - 1.0) + gmin * v;
    let g = is_ * de + gmin;
    (i, g)
}

/// Depletion charge and capacitance of a junction with zero-bias
/// capacitance `cj`, built-in potential `vj`, grading `m`, and forward-bias
/// linearization point `fc` (SPICE F1/F2/F3 formulation).
///
/// Returns `(charge, capacitance)`.
pub fn depletion(v: f64, cj: f64, vj: f64, m: f64, fc: f64) -> (f64, f64) {
    if cj == 0.0 {
        return (0.0, 0.0);
    }
    let fcv = fc * vj;
    if v < fcv {
        let arg = 1.0 - v / vj;
        let q = cj * vj / (1.0 - m) * (1.0 - arg.powf(1.0 - m));
        let c = cj * arg.powf(-m);
        (q, c)
    } else {
        let f1 = vj / (1.0 - m) * (1.0 - (1.0 - fc).powf(1.0 - m));
        let f2 = (1.0 - fc).powf(1.0 + m);
        let f3 = 1.0 - fc * (1.0 + m);
        let q = cj * (f1 + (f3 * (v - fcv) + m / (2.0 * vj) * (v * v - fcv * fcv)) / f2);
        let c = cj / f2 * (f3 + m * v / vj);
        (q, c)
    }
}

/// A depletion junction with its voltage-independent terms computed
/// once: [`Junction::eval`] returns exactly the bits of [`depletion`]
/// called with the same parameters, without the forward-bias branch's
/// `powf` calls on constants.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Junction {
    cj: f64,
    vj: f64,
    m: f64,
    /// `fc * vj`: the forward-bias linearization point.
    fcv: f64,
    /// `cj * vj / (1 - m)`: the reverse-branch charge scale.
    q_scale: f64,
    /// SPICE F1, F2, F3.
    f1: f64,
    f2: f64,
    f3: f64,
    /// `m / (2 * vj)`: the forward-branch quadratic coefficient.
    half_m_vj: f64,
    /// `cj / f2`: the forward-branch capacitance scale.
    c_scale: f64,
}

impl Junction {
    /// Compiles the junction `depletion(_, cj, vj, m, fc)` evaluates.
    pub(crate) fn new(cj: f64, vj: f64, m: f64, fc: f64) -> Self {
        let fcv = fc * vj;
        let f2 = (1.0 - fc).powf(1.0 + m);
        Junction {
            cj,
            vj,
            m,
            fcv,
            q_scale: cj * vj / (1.0 - m),
            f1: vj / (1.0 - m) * (1.0 - (1.0 - fc).powf(1.0 - m)),
            f2,
            f3: 1.0 - fc * (1.0 + m),
            half_m_vj: m / (2.0 * vj),
            c_scale: cj / f2,
        }
    }

    /// Depletion charge and capacitance at `v`, as [`depletion`].
    #[inline]
    pub(crate) fn eval(&self, v: f64) -> (f64, f64) {
        if self.cj == 0.0 {
            return (0.0, 0.0);
        }
        if v < self.fcv {
            let arg = 1.0 - v / self.vj;
            let q = self.q_scale * (1.0 - arg.powf(1.0 - self.m));
            let c = self.cj * arg.powf(-self.m);
            (q, c)
        } else {
            let fcv = self.fcv;
            let q = self.cj
                * (self.f1
                    + (self.f3 * (v - fcv) + self.half_m_vj * (v * v - fcv * fcv)) / self.f2);
            let c = self.c_scale * (self.f3 + self.m * v / self.vj);
            (q, c)
        }
    }
}

/// Critical voltage for junction limiting: the voltage at which the diode
/// curve's curvature makes naive Newton steps overshoot.
pub fn vcrit(is_: f64, nvt: f64) -> f64 {
    nvt * (nvt / (std::f64::consts::SQRT_2 * is_.max(1e-300))).ln()
}

/// SPICE `pnjlim`: limits the Newton update of a junction voltage from
/// `vold` to proposed `vnew`, returning the damped voltage.
pub fn pnjlim(vnew: f64, vold: f64, nvt: f64, vcrit: f64) -> f64 {
    if vnew > vcrit && (vnew - vold).abs() > 2.0 * nvt {
        if vold > 0.0 {
            let arg = 1.0 + (vnew - vold) / nvt;
            if arg > 0.0 {
                vold + nvt * arg.ln()
            } else {
                vcrit
            }
        } else {
            nvt * (vnew / nvt).max(1e-10).ln()
        }
    } else {
        vnew
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limexp_matches_exp_in_range() {
        let (e, de) = limexp(0.7, VT_300K);
        let exact = (0.7 / VT_300K).exp();
        assert!((e - exact).abs() / exact < 1e-12);
        assert!((de - exact / VT_300K).abs() / de < 1e-12);
    }

    #[test]
    fn limexp_is_finite_and_continuous_at_knee() {
        let nvt = VT_300K;
        let vk = 80.0 * nvt;
        let below = limexp(vk - 1e-9, nvt).0;
        let above = limexp(vk + 1e-9, nvt).0;
        assert!(above.is_finite());
        assert!((above - below) / below < 1e-6);
        // Far beyond the knee it keeps growing linearly, never overflows.
        assert!(limexp(1000.0, nvt).0.is_finite());
    }

    #[test]
    fn diode_current_at_zero_bias_is_zero() {
        let (i, g) = diode_current(0.0, 1e-14, VT_300K, 0.0);
        assert_eq!(i, 0.0);
        assert!(g > 0.0);
    }

    #[test]
    fn diode_conductance_is_derivative() {
        let is_ = 1e-15;
        let v = 0.65;
        let h = 1e-7;
        let (ip, _) = diode_current(v + h, is_, VT_300K, 1e-12);
        let (im, _) = diode_current(v - h, is_, VT_300K, 1e-12);
        let (_, g) = diode_current(v, is_, VT_300K, 1e-12);
        let g_num = (ip - im) / (2.0 * h);
        assert!((g - g_num).abs() / g_num < 1e-6);
    }

    #[test]
    fn depletion_cap_at_zero_bias_is_cj() {
        let (_, c) = depletion(0.0, 1e-12, 0.75, 0.33, 0.5);
        assert!((c - 1e-12).abs() < 1e-18);
    }

    #[test]
    fn depletion_cap_decreases_in_reverse() {
        let (_, c0) = depletion(0.0, 1e-12, 0.75, 0.33, 0.5);
        let (_, cr) = depletion(-5.0, 1e-12, 0.75, 0.33, 0.5);
        assert!(cr < c0 * 0.6);
    }

    #[test]
    fn depletion_charge_and_cap_continuous_at_fc() {
        let (cj, vj, m, fc) = (2e-12, 0.8, 0.4, 0.5);
        let v = fc * vj;
        let (ql, cl) = depletion(v - 1e-9, cj, vj, m, fc);
        let (qh, ch) = depletion(v + 1e-9, cj, vj, m, fc);
        assert!((ql - qh).abs() < 1e-20);
        assert!((cl - ch).abs() / cl < 1e-6);
    }

    #[test]
    fn capacitance_is_charge_derivative() {
        let (cj, vj, m, fc) = (1e-12, 0.75, 0.33, 0.5);
        for &v in &[-3.0, -0.5, 0.2, 0.5, 0.9] {
            let h = 1e-6;
            let (qp, _) = depletion(v + h, cj, vj, m, fc);
            let (qm, _) = depletion(v - h, cj, vj, m, fc);
            let (_, c) = depletion(v, cj, vj, m, fc);
            let c_num = (qp - qm) / (2.0 * h);
            assert!((c - c_num).abs() / c < 1e-5, "v={v}");
        }
    }

    #[test]
    fn compiled_junction_is_bitwise_depletion() {
        // (cj, vj, m, fc): typical cards, a zero-capacitance junction and
        // a grading near the abrupt limit.
        for (cj, vj, m, fc) in [
            (1e-12, 0.75, 0.33, 0.5),
            (2.3e-14, 0.9, 0.5, 0.8),
            (0.0, 0.7, 0.4, 0.5),
            (7e-15, 0.6, 0.01, 0.95),
        ] {
            let j = Junction::new(cj, vj, m, fc);
            let fcv = fc * vj;
            let mut vs = vec![-50.0, -3.0, -0.5, 0.0, 0.3, 0.9, 2.0, 10.0];
            // Both sides of the FC·VJ boundary, to the last ULP.
            vs.extend([
                fcv,
                f64::from_bits(fcv.to_bits() - 1),
                f64::from_bits(fcv.to_bits() + 1),
                fcv - 1e-9,
                fcv + 1e-9,
            ]);
            for v in vs {
                let (q, c) = j.eval(v);
                let (qr, cr) = depletion(v, cj, vj, m, fc);
                assert_eq!(q.to_bits(), qr.to_bits(), "q at v={v}, cj={cj}");
                assert_eq!(c.to_bits(), cr.to_bits(), "c at v={v}, cj={cj}");
            }
        }
    }

    #[test]
    fn pnjlim_passes_small_steps() {
        let nvt = VT_300K;
        let vc = vcrit(1e-16, nvt);
        assert_eq!(pnjlim(0.6, 0.59, nvt, vc), 0.6);
    }

    #[test]
    fn pnjlim_damps_large_forward_jumps() {
        let nvt = VT_300K;
        let vc = vcrit(1e-16, nvt);
        let limited = pnjlim(5.0, 0.7, nvt, vc);
        assert!(limited < 1.0, "limited = {limited}");
        assert!(limited > 0.7);
    }

    #[test]
    fn vcrit_is_plausible() {
        let vc = vcrit(1e-16, VT_300K);
        assert!(vc > 0.6 && vc < 1.0, "vcrit = {vc}");
    }
}
