//! Junction diode: model evaluation and the [`Device`] implementation.

use super::{
    AcCtx, AcStamper, Device, EdgeKind, NoiseGenerator, OpCtx, RealCtx, RealStamper, TopologyEdge,
    Q,
};
use crate::analysis::stamp::{ChargeState, Mode, NonlinMemory};
use crate::circuit::read_slot;
use crate::devices::junction::{depletion, diode_current, limexp, pnjlim, vcrit};
use crate::model::DiodeModel;

/// Operating state of a diode at junction voltage `vd`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DiodeOperating {
    /// Junction voltage (V).
    pub vd: f64,
    /// Junction current (A).
    pub id: f64,
    /// Small-signal conductance `d(id)/d(vd)` (S).
    pub gd: f64,
    /// Stored charge: diffusion + depletion (C).
    pub qd: f64,
    /// Incremental capacitance `d(qd)/d(vd)` (F).
    pub cd: f64,
}

/// Evaluates the diode equations at junction voltage `vd`.
///
/// Includes reverse breakdown as an exponential branch when the model's
/// `bv` is finite.
pub fn eval_diode(model: &DiodeModel, vd: f64, vt: f64, gmin: f64) -> DiodeOperating {
    let nvt = model.n * vt;
    let (mut id, mut gd) = diode_current(vd, model.is_, nvt, gmin);
    if model.bv.is_finite() && vd < -model.bv + 10.0 * nvt {
        // Breakdown branch: current grows exponentially below -BV.
        let (eb, deb) = limexp(-(vd + model.bv), nvt);
        id -= model.is_ * eb;
        gd += model.is_ * deb;
    }
    let (qj, cj) = depletion(vd, model.cjo, model.vj, model.m, model.fc);
    let idiff = model.is_ * ((vd / nvt).min(80.0).exp() - 1.0);
    let qd = model.tt * idiff + qj;
    let cd = model.tt * (model.is_ / nvt) * (vd / nvt).min(80.0).exp() + cj;
    DiodeOperating { vd, id, gd, qd, cd }
}

/// Compiled diode: anode, optional internal node (series resistance)
/// and cathode slots.
#[derive(Debug)]
pub(crate) struct DiodeInstance {
    pub idx: usize,
    pub anode: usize,
    pub internal: usize,
    pub cathode: usize,
}

impl DiodeInstance {
    fn model<'a>(&self, cx_prep: &'a crate::circuit::Prepared) -> &'a DiodeModel {
        cx_prep.scaled_diode[self.idx]
            .as_ref()
            .expect("diode element has a scaled model")
    }
}

impl Device for DiodeInstance {
    fn index(&self) -> usize {
        self.idx
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn topology(&self, out: &mut Vec<TopologyEdge>) {
        // The junction always conducts at DC (gmin-loaded exponential);
        // the series-resistance segment exists only with an internal node.
        if self.internal != self.anode {
            out.push(TopologyEdge::new(
                self.anode,
                self.internal,
                EdgeKind::Conductive,
            ));
        }
        out.push(TopologyEdge::new(
            self.internal,
            self.cathode,
            EdgeKind::Conductive,
        ));
    }

    fn charge_slots(&self) -> usize {
        1
    }

    fn stamp_real(&self, cx: &RealCtx, mem: &mut NonlinMemory, s: &mut RealStamper) {
        let model = self.model(cx.prep);
        if self.internal != self.anode {
            s.admittance(self.anode, self.internal, 1.0 / model.rs);
        }
        let vd_raw = read_slot(cx.x, self.internal) - read_slot(cx.x, self.cathode);
        let nvt = model.n * cx.opts.vt;
        let vd = pnjlim(vd_raw, mem.diode[self.idx], nvt, vcrit(model.is_, nvt));
        let shift = (vd - vd_raw).abs();
        if shift > 1e-15 {
            mem.note_limited(shift);
        }
        mem.diode[self.idx] = vd;
        let op = eval_diode(model, vd, cx.opts.vt, cx.opts.gmin);
        s.admittance(self.internal, self.cathode, op.gd);
        s.current(self.internal, self.cathode, op.id - op.gd * vd);
        if let Mode::Tran { a, bank, .. } = cx.mode {
            let st = bank.states[bank.base[self.idx]];
            let i = a * (op.qd - st.q) - st.i;
            let geq = a * op.cd;
            s.admittance(self.internal, self.cathode, geq);
            s.current(self.internal, self.cathode, i - geq * vd);
        }
    }

    fn update_charges(&self, cx: &RealCtx, out: &mut [ChargeState]) {
        let Mode::Tran { a, bank, .. } = cx.mode else {
            return;
        };
        let model = self.model(cx.prep);
        let vd = read_slot(cx.x, self.internal) - read_slot(cx.x, self.cathode);
        let op = eval_diode(model, vd, cx.opts.vt, cx.opts.gmin);
        let st = bank.states[bank.base[self.idx]];
        out[0] = ChargeState {
            q: op.qd,
            i: a * (op.qd - st.q) - st.i,
        };
    }

    fn stamp_ac(&self, cx: &AcCtx, s: &mut AcStamper) {
        use ahfic_num::Complex;
        let model = self.model(cx.prep);
        let jw = Complex::new(0.0, cx.omega);
        if self.internal != self.anode {
            s.admittance(self.anode, self.internal, Complex::from_re(1.0 / model.rs));
        }
        let vd = read_slot(cx.x_op, self.internal) - read_slot(cx.x_op, self.cathode);
        let op = eval_diode(model, vd, cx.opts.vt, cx.opts.gmin);
        s.admittance(
            self.internal,
            self.cathode,
            Complex::from_re(op.gd) + jw * op.cd,
        );
    }

    fn noise(&self, cx: &OpCtx, out: &mut Vec<NoiseGenerator>) {
        let model = self.model(cx.prep);
        let name = &cx.prep.circuit.elements()[self.idx].name;
        let vd = read_slot(cx.x, self.internal) - read_slot(cx.x, self.cathode);
        let op = eval_diode(model, vd, cx.opts.vt, 0.0);
        out.push(NoiseGenerator::white(
            name,
            "shot-id",
            self.internal,
            self.cathode,
            2.0 * Q * op.id.abs(),
        ));
        if model.kf > 0.0 {
            out.push(NoiseGenerator::flicker(
                name,
                "flicker-id",
                self.internal,
                self.cathode,
                model.kf * op.id.abs().powf(model.af),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::junction::VT_300K;

    #[test]
    fn forward_conduction() {
        let m = DiodeModel::default();
        let op = eval_diode(&m, 0.7, VT_300K, 0.0);
        assert!(op.id > 1e-3, "id = {}", op.id);
        assert!(op.gd > 0.0);
    }

    #[test]
    fn reverse_leakage_is_saturation_current() {
        let m = DiodeModel::default();
        let op = eval_diode(&m, -5.0, VT_300K, 0.0);
        assert!((op.id + m.is_).abs() < 1e-16);
    }

    #[test]
    fn breakdown_conducts() {
        let m = DiodeModel {
            bv: 5.0,
            ..DiodeModel::default()
        };
        let op = eval_diode(&m, -5.5, VT_300K, 0.0);
        assert!(op.id < -1e-6, "id = {}", op.id);
    }

    #[test]
    fn capacitance_includes_diffusion_term() {
        let m = DiodeModel {
            tt: 1e-9,
            cjo: 1e-12,
            ..DiodeModel::default()
        };
        let rev = eval_diode(&m, -1.0, VT_300K, 0.0);
        let fwd = eval_diode(&m, 0.7, VT_300K, 0.0);
        assert!(fwd.cd > 100.0 * rev.cd);
    }

    #[test]
    fn conductance_is_current_derivative() {
        let m = DiodeModel::default();
        let h = 1e-7;
        let a = eval_diode(&m, 0.6 - h, VT_300K, 1e-12);
        let b = eval_diode(&m, 0.6 + h, VT_300K, 1e-12);
        let mid = eval_diode(&m, 0.6, VT_300K, 1e-12);
        let g_num = (b.id - a.id) / (2.0 * h);
        assert!((mid.gd - g_num).abs() / g_num < 1e-5);
    }
}
