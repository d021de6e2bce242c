//! Gummel–Poon bipolar transistor: model evaluation and the [`Device`]
//! implementation.
//!
//! [`eval_bjt`] computes terminal currents, the full Newton Jacobian,
//! stored charges and incremental capacitances at a junction-voltage pair.
//! Everything is done in *normalized* (NPN) space: for PNP devices the
//! caller flips terminal voltage signs before and current/charge signs
//! after (conductances and capacitances are invariant under that
//! transformation).
//!
//! A compiled BJT evaluates the same equations against the
//! voltage-independent depletion terms of its model card, computed once
//! at compile time, and takes the extrinsic B-C' charge at the true
//! external-base voltage. Its transient charge commit evaluates only the
//! four charges.

use super::{
    AcCtx, AcStamper, Device, EdgeKind, NoiseGenerator, OpCtx, RealCtx, RealStamper, TopologyEdge,
    KB, Q,
};
use crate::analysis::stamp::{ChargeState, Mode, NonlinMemory, Options};
use crate::circuit::{read_slot, BjtNodes, Prepared};
use crate::devices::junction::{depletion, diode_current, limexp, pnjlim, vcrit, Junction};
use crate::model::BjtModel;
use ahfic_num::Complex;

/// Complete Gummel–Poon operating state at a `(vbe, vbc, vcs)` triple.
///
/// All quantities are in normalized NPN polarity. Currents flow *into* the
/// respective terminal.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BjtOperating {
    /// Internal base-emitter voltage used for evaluation (V).
    pub vbe: f64,
    /// Internal base-collector voltage (V).
    pub vbc: f64,
    /// Collector terminal current (A).
    pub ic: f64,
    /// Base terminal current (A).
    pub ib: f64,
    /// Emitter terminal current (A), `-(ic + ib)`.
    pub ie: f64,
    /// Transport (collector-to-emitter) current (A).
    pub it: f64,
    /// Total base-emitter diode current (A).
    pub ibe: f64,
    /// Total base-collector diode current (A).
    pub ibc: f64,
    /// `d(ibe)/d(vbe)` (S).
    pub gpi: f64,
    /// `d(ibc)/d(vbc)` (S).
    pub gmu: f64,
    /// `d(it)/d(vbe)` — forward transconductance (S).
    pub gmf: f64,
    /// `d(it)/d(vbc)` — reverse transconductance, negative of the Early
    /// output conductance contribution (S).
    pub gmr: f64,
    /// Normalized majority base charge `qb`.
    pub qb: f64,
    /// B-E stored charge: diffusion + depletion (C).
    pub qbe: f64,
    /// Internal B'-C' stored charge (C).
    pub qbc: f64,
    /// External B-C' depletion charge (the `1-XCJC` fraction) at the
    /// external-base voltage (C). [`eval_bjt`] evaluates it at `vbc`.
    pub qbx: f64,
    /// Collector-substrate depletion charge (C).
    pub qcs: f64,
    /// `d(qbe)/d(vbe)` (F).
    pub cbe: f64,
    /// `d(qbe)/d(vbc)` — cross capacitance via the bias-dependent transit
    /// time (F).
    pub cbe_bc: f64,
    /// `d(qbc)/d(vbc)` (F).
    pub cbc: f64,
    /// `d(qbx)/d(vbc_ext)` (F).
    pub cbx: f64,
    /// `d(qcs)/d(vcs)` (F).
    pub ccs: f64,
    /// Bias-dependent base resistance (ohm).
    pub rbb: f64,
}

impl BjtOperating {
    /// DC beta `ic/ib` at this point (guards against `ib == 0`).
    pub fn beta_dc(&self) -> f64 {
        if self.ib.abs() < 1e-300 {
            f64::INFINITY
        } else {
            self.ic / self.ib
        }
    }

    /// Unity-gain transition frequency from the small-signal parameters:
    /// `fT = gm / (2*pi*(cpi + cmu))`.
    pub fn ft(&self) -> f64 {
        let ctot = self.cbe + self.cbc + self.cbx;
        if ctot <= 0.0 {
            return f64::INFINITY;
        }
        self.gmf / (2.0 * std::f64::consts::PI * ctot)
    }
}

/// Evaluates the Gummel–Poon equations at internal junction voltages
/// `(vbe, vbc)` and collector-substrate voltage `vcs`, all in normalized
/// NPN polarity.
///
/// `vt` is the thermal voltage and `gmin` the convergence-aid conductance
/// placed across both junctions. The extrinsic B-C' charge `qbx` needs the
/// external-base voltage, which this signature does not carry; it is
/// evaluated at `vbc`, an adequate proxy when RB is small. Compiled
/// devices evaluate it at the true external-base voltage.
pub fn eval_bjt(
    model: &BjtModel,
    vbe: f64,
    vbc: f64,
    vcs: f64,
    vt: f64,
    gmin: f64,
) -> BjtOperating {
    let m = model;
    let xcjc = m.xcjc.clamp(0.0, 1.0);
    let dep = [
        depletion(vbe, m.cje, m.vje, m.mje, m.fc),
        depletion(vbc, m.cjc * xcjc, m.vjc, m.mjc, m.fc),
        depletion(vbc, m.cjc * (1.0 - xcjc), m.vjc, m.mjc, m.fc),
        depletion(vcs, m.cjs, m.vjs, m.mjs, m.fc),
    ];
    eval_gp(m, vbe, vbc, dep, vt, gmin)
}

/// Depletion charge and capacitance `(q, c)` of the B-E, internal B'-C',
/// external B-C' and collector-substrate junctions, in that order.
type Depletions = [(f64, f64); 4];

/// Voltage-independent depletion terms of a BJT's four junctions,
/// compiled once from its area-scaled model card.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BjtJunctions {
    /// B-E (`CJE`).
    be: Junction,
    /// Internal B'-C' (the `XCJC` fraction of `CJC`).
    bc: Junction,
    /// External B-C' (the `1-XCJC` fraction of `CJC`).
    bx: Junction,
    /// Collector-substrate (`CJS`).
    cs: Junction,
}

impl BjtJunctions {
    pub(crate) fn new(m: &BjtModel) -> Self {
        let xcjc = m.xcjc.clamp(0.0, 1.0);
        BjtJunctions {
            be: Junction::new(m.cje, m.vje, m.mje, m.fc),
            bc: Junction::new(m.cjc * xcjc, m.vjc, m.mjc, m.fc),
            bx: Junction::new(m.cjc * (1.0 - xcjc), m.vjc, m.mjc, m.fc),
            cs: Junction::new(m.cjs, m.vjs, m.mjs, m.fc),
        }
    }

    /// The four junctions' depletion terms at `b`, the external B-C'
    /// junction at the external-base voltage.
    fn eval(&self, b: Bias) -> Depletions {
        [
            self.be.eval(b.vbe),
            self.bc.eval(b.vbc),
            self.bx.eval(b.vbx),
            self.cs.eval(b.vcs),
        ]
    }
}

/// Junction voltages of one evaluation, in normalized NPN polarity.
#[derive(Clone, Copy, Debug)]
struct Bias {
    /// Internal B'-E'.
    vbe: f64,
    /// Internal B'-C'.
    vbc: f64,
    /// External base to internal collector (the extrinsic B-C' junction).
    vbx: f64,
    /// Substrate to internal collector.
    vcs: f64,
}

/// Bias-dependent forward transit time (XTF/VTF/ITF Kirk-effect
/// surrogate) at forward diode current `i_f` (conductance `gif`) and
/// `vbc`, with its derivatives: `(tff, d/dvbe, d/dvbc)`.
fn transit_time(m: &BjtModel, i_f: f64, gif: f64, vbc: f64) -> (f64, f64, f64) {
    if m.tf > 0.0 && m.xtf > 0.0 {
        let denom = i_f + m.itf;
        let ratio = if denom > 0.0 { i_f / denom } else { 0.0 };
        let expv = if m.vtf.is_finite() {
            (vbc / (1.44 * m.vtf)).exp()
        } else {
            1.0
        };
        let tff = m.tf * (1.0 + m.xtf * ratio * ratio * expv);
        let dratio_dvbe = if denom > 0.0 {
            gif * m.itf / (denom * denom)
        } else {
            0.0
        };
        let dtff_dvbe = m.tf * m.xtf * 2.0 * ratio * dratio_dvbe * expv;
        let dtff_dvbc = if m.vtf.is_finite() {
            m.tf * m.xtf * ratio * ratio * expv / (1.44 * m.vtf)
        } else {
            0.0
        };
        (tff, dtff_dvbe, dtff_dvbc)
    } else {
        (m.tf, 0.0, 0.0)
    }
}

/// The stored charges `[qbe, qbc, qbx, qcs]` at `b`: what [`eval_gp`]
/// computes from `j.eval(b)`, bit for bit, without its currents and
/// conductances.
fn charges(m: &BjtModel, j: &BjtJunctions, b: Bias, vt: f64) -> [f64; 4] {
    let (ef, def) = limexp(b.vbe, m.nf * vt);
    let i_f = m.is_ * (ef - 1.0);
    let (er, _) = limexp(b.vbc, m.nr * vt);
    let i_r = m.is_ * (er - 1.0);
    let (tff, _, _) = transit_time(m, i_f, m.is_ * def, b.vbc);
    [
        tff * i_f + j.be.eval(b.vbe).0,
        m.tr * i_r + j.bc.eval(b.vbc).0,
        j.bx.eval(b.vbx).0,
        j.cs.eval(b.vcs).0,
    ]
}

/// The Gummel–Poon evaluation behind [`eval_bjt`] and the compiled
/// device, at internal junction voltages `vbe`, `vbc` with the
/// junctions' depletion terms `dep`.
fn eval_gp(m: &BjtModel, vbe: f64, vbc: f64, dep: Depletions, vt: f64, gmin: f64) -> BjtOperating {
    let nfvt = m.nf * vt;
    let nrvt = m.nr * vt;

    // Ideal transport diode currents.
    let (ef, def) = limexp(vbe, nfvt);
    let i_f = m.is_ * (ef - 1.0);
    let gif = m.is_ * def;
    let (er, der) = limexp(vbc, nrvt);
    let i_r = m.is_ * (er - 1.0);
    let gir = m.is_ * der;

    // Base charge qb = q1/2 (1 + sqrt(1 + 4 q2)).
    let inv_q1 = {
        let mut x = 1.0;
        if m.vaf.is_finite() {
            x -= vbc / m.vaf;
        }
        if m.var.is_finite() {
            x -= vbe / m.var;
        }
        // SPICE clamps to keep qb positive in deep saturation corners.
        x.max(1e-4)
    };
    let q1 = 1.0 / inv_q1;
    let mut q2 = 0.0;
    let mut dq2_dvbe = 0.0;
    let mut dq2_dvbc = 0.0;
    if m.ikf.is_finite() && m.ikf > 0.0 {
        q2 += i_f / m.ikf;
        dq2_dvbe += gif / m.ikf;
    }
    if m.ikr.is_finite() && m.ikr > 0.0 {
        q2 += i_r / m.ikr;
        dq2_dvbc += gir / m.ikr;
    }
    let s = (1.0 + 4.0 * q2).max(0.0).sqrt();
    let qb = q1 * (1.0 + s) / 2.0;
    let dq1_dvbe = if m.var.is_finite() {
        q1 * q1 / m.var
    } else {
        0.0
    };
    let dq1_dvbc = if m.vaf.is_finite() {
        q1 * q1 / m.vaf
    } else {
        0.0
    };
    let dqb_dvbe = dq1_dvbe * (1.0 + s) / 2.0 + q1 / s.max(1e-12) * dq2_dvbe;
    let dqb_dvbc = dq1_dvbc * (1.0 + s) / 2.0 + q1 / s.max(1e-12) * dq2_dvbc;

    // Transport current and transconductances.
    let it = (i_f - i_r) / qb;
    let gmf = gif / qb - it / qb * dqb_dvbe;
    let gmr = -gir / qb - it / qb * dqb_dvbc;

    // Base current components (ideal / qb-independent + leakage).
    let (ibe_ideal, gbe_ideal) = (i_f / m.bf, gif / m.bf);
    let (ible, gble) = if m.ise > 0.0 {
        diode_current(vbe, m.ise, m.ne * vt, 0.0)
    } else {
        (0.0, 0.0)
    };
    let (ibc_ideal, gbc_ideal) = (i_r / m.br, gir / m.br);
    let (iblc, gblc) = if m.isc > 0.0 {
        diode_current(vbc, m.isc, m.nc * vt, 0.0)
    } else {
        (0.0, 0.0)
    };
    let ibe = ibe_ideal + ible + gmin * vbe;
    let gpi = gbe_ideal + gble + gmin;
    let ibc = ibc_ideal + iblc + gmin * vbc;
    let gmu = gbc_ideal + gblc + gmin;

    let (tff, dtff_dvbe, dtff_dvbc) = transit_time(m, i_f, gif, vbc);

    // Stored charges. The external (extrinsic-base) fraction of the B-C
    // capacitance, `qbx`, is pure depletion.
    let [(qje, cje), (qjc_int, cjc_int), (qbx, cbx), (qcs, ccs)] = dep;
    let qbe = tff * i_f + qje;
    let cbe = tff * gif + dtff_dvbe * i_f + cje;
    let cbe_bc = dtff_dvbc * i_f;

    let qbc = m.tr * i_r + qjc_int;
    let cbc = m.tr * gir + cjc_int;

    // Bias-dependent base resistance (SPICE formulation without IRB uses
    // qb; with IRB uses the tan(x)/x solution — we use the qb form, and
    // interpolate toward RBM with IRB when given).
    let rbm = m.rbm_effective();
    let rbb = if m.rb <= 0.0 {
        0.0
    } else if m.irb.is_finite() && m.irb > 0.0 {
        let ib_total = (ibe + ibc).abs();
        // Smooth interpolation: rbb = rbm + (rb - rbm)/(1 + ib/irb).
        rbm + (m.rb - rbm) / (1.0 + ib_total / m.irb)
    } else {
        rbm + (m.rb - rbm) / qb
    };

    let ic = it - ibc;
    let ib = ibe + ibc;
    BjtOperating {
        vbe,
        vbc,
        ic,
        ib,
        ie: -(ic + ib),
        it,
        ibe,
        ibc,
        gpi,
        gmu,
        gmf,
        gmr,
        qb,
        qbe,
        qbc,
        qbx,
        qcs,
        cbe,
        cbe_bc,
        cbc,
        cbx,
        ccs,
        rbb,
    }
}

/// Compiled BJT: external and internal node slots, and the depletion
/// terms of its area-scaled model card.
#[derive(Debug)]
pub(crate) struct BjtInstance {
    pub idx: usize,
    pub nodes: BjtNodes,
    pub junctions: BjtJunctions,
}

impl BjtInstance {
    fn model<'a>(&self, prep: &'a Prepared) -> &'a BjtModel {
        prep.scaled_bjt[self.idx]
            .as_ref()
            .expect("bjt element has a scaled model")
    }

    /// Junction voltages at `x` in normalized NPN polarity.
    fn bias(&self, model: &BjtModel, x: &[f64]) -> Bias {
        let nd = &self.nodes;
        let sg = model.polarity.sign();
        Bias {
            vbe: sg * (read_slot(x, nd.bi) - read_slot(x, nd.ei)),
            vbc: sg * (read_slot(x, nd.bi) - read_slot(x, nd.ci)),
            vbx: sg * (read_slot(x, nd.b) - read_slot(x, nd.ci)),
            vcs: sg * (read_slot(x, nd.s) - read_slot(x, nd.ci)),
        }
    }

    /// The full operating state at `x`, without junction limiting.
    fn operating(&self, model: &BjtModel, x: &[f64], opts: &Options) -> BjtOperating {
        let b = self.bias(model, x);
        let dep = self.junctions.eval(b);
        eval_gp(model, b.vbe, b.vbc, dep, opts.vt, opts.gmin)
    }
}

impl Device for BjtInstance {
    fn index(&self) -> usize {
        self.idx
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn topology(&self, out: &mut Vec<TopologyEdge>) {
        let nd = &self.nodes;
        // Parasitic-resistance segments exist only when the internal
        // node was split off the terminal.
        for (ext, int) in [(nd.c, nd.ci), (nd.b, nd.bi), (nd.e, nd.ei)] {
            if ext != int {
                out.push(TopologyEdge::new(ext, int, EdgeKind::Conductive));
            }
        }
        // Both junctions conduct at DC (gmin-loaded exponentials).
        out.push(TopologyEdge::new(nd.bi, nd.ei, EdgeKind::Conductive));
        out.push(TopologyEdge::new(nd.bi, nd.ci, EdgeKind::Conductive));
        // The substrate junction is charge storage only.
        out.push(TopologyEdge::new(nd.s, nd.ci, EdgeKind::Capacitive));
    }

    fn charge_slots(&self) -> usize {
        4
    }

    fn stamp_real(&self, cx: &RealCtx, mem: &mut NonlinMemory, s: &mut RealStamper) {
        let model = self.model(cx.prep);
        let nd = self.nodes;
        let sg = model.polarity.sign();
        let raw = self.bias(model, cx.x);
        let (old_vbe, old_vbc) = mem.bjt[self.idx];
        let nfvt = model.nf * cx.opts.vt;
        let nrvt = model.nr * cx.opts.vt;
        let vbe = pnjlim(raw.vbe, old_vbe, nfvt, vcrit(model.is_, nfvt));
        let vbc = pnjlim(raw.vbc, old_vbc, nrvt, vcrit(model.is_, nrvt));
        let be_shift = (vbe - raw.vbe).abs();
        if be_shift > 1e-15 {
            mem.note_limited(be_shift);
        }
        let bc_shift = (vbc - raw.vbc).abs();
        if bc_shift > 1e-15 {
            mem.note_limited(bc_shift);
        }
        mem.bjt[self.idx] = (vbe, vbc);
        let Bias { vbx, vcs, .. } = raw;
        let dep = self.junctions.eval(Bias { vbe, vbc, ..raw });
        let op = eval_gp(model, vbe, vbc, dep, cx.opts.vt, cx.opts.gmin);

        // Parasitic terminal resistances into the internal nodes.
        if nd.bi != nd.b {
            s.admittance(nd.b, nd.bi, 1.0 / op.rbb.max(1e-3));
        }
        if nd.ci != nd.c {
            s.admittance(nd.c, nd.ci, 1.0 / model.rc);
        }
        if nd.ei != nd.e {
            s.admittance(nd.e, nd.ei, 1.0 / model.re);
        }

        // B-E and B-C junction linearizations.
        s.admittance(nd.bi, nd.ei, op.gpi);
        s.current(nd.bi, nd.ei, sg * (op.ibe - op.gpi * vbe));
        s.admittance(nd.bi, nd.ci, op.gmu);
        s.current(nd.bi, nd.ci, sg * (op.ibc - op.gmu * vbc));

        // Transport current from collector to emitter.
        s.add(nd.ci, nd.bi, op.gmf + op.gmr);
        s.add(nd.ci, nd.ei, -op.gmf);
        s.add(nd.ci, nd.ci, -op.gmr);
        s.add(nd.ei, nd.bi, -(op.gmf + op.gmr));
        s.add(nd.ei, nd.ei, op.gmf);
        s.add(nd.ei, nd.ci, op.gmr);
        s.current(nd.ci, nd.ei, sg * (op.it - op.gmf * vbe - op.gmr * vbc));

        if let Mode::Tran { a, bank, .. } = cx.mode {
            let b0 = bank.base[self.idx];
            // qbe with the cross term d(qbe)/d(vbc).
            let st = bank.states[b0];
            let i = a * (op.qbe - st.q) - st.i;
            let gbe = a * op.cbe;
            let gx = a * op.cbe_bc;
            s.add(nd.bi, nd.bi, gbe + gx);
            s.add(nd.bi, nd.ei, -gbe);
            s.add(nd.bi, nd.ci, -gx);
            s.add(nd.ei, nd.bi, -(gbe + gx));
            s.add(nd.ei, nd.ei, gbe);
            s.add(nd.ei, nd.ci, gx);
            s.current(nd.bi, nd.ei, sg * (i - gbe * vbe - gx * vbc));
            // qbc (internal B'-C').
            let st = bank.states[b0 + 1];
            let i = a * (op.qbc - st.q) - st.i;
            let geq = a * op.cbc;
            s.admittance(nd.bi, nd.ci, geq);
            s.current(nd.bi, nd.ci, sg * (i - geq * vbc));
            // qbx: external-base fraction of the B-C depletion charge.
            let st = bank.states[b0 + 2];
            let i = a * (op.qbx - st.q) - st.i;
            s.admittance(nd.b, nd.ci, a * op.cbx);
            s.current(nd.b, nd.ci, sg * (i - a * op.cbx * vbx));
            // qcs.
            let st = bank.states[b0 + 3];
            let i = a * (op.qcs - st.q) - st.i;
            let geq = a * op.ccs;
            s.admittance(nd.s, nd.ci, geq);
            s.current(nd.s, nd.ci, sg * (i - geq * vcs));
        }
    }

    fn update_charges(&self, cx: &RealCtx, out: &mut [ChargeState]) {
        let Mode::Tran { a, bank, .. } = cx.mode else {
            return;
        };
        let model = self.model(cx.prep);
        let qs = charges(model, &self.junctions, self.bias(model, cx.x), cx.opts.vt);
        let b0 = bank.base[self.idx];
        for (slot, q) in qs.into_iter().enumerate() {
            let st = bank.states[b0 + slot];
            out[slot] = ChargeState {
                q,
                i: a * (q - st.q) - st.i,
            };
        }
    }

    fn stamp_ac(&self, cx: &AcCtx, s: &mut AcStamper) {
        let model = self.model(cx.prep);
        let nd = self.nodes;
        let jw = Complex::new(0.0, cx.omega);
        let op = self.operating(model, cx.x_op, cx.opts);

        if nd.bi != nd.b {
            s.admittance(nd.b, nd.bi, Complex::from_re(1.0 / op.rbb.max(1e-3)));
        }
        if nd.ci != nd.c {
            s.admittance(nd.c, nd.ci, Complex::from_re(1.0 / model.rc));
        }
        if nd.ei != nd.e {
            s.admittance(nd.e, nd.ei, Complex::from_re(1.0 / model.re));
        }

        s.admittance(nd.bi, nd.ei, Complex::from_re(op.gpi) + jw * op.cbe);
        s.admittance(nd.bi, nd.ci, Complex::from_re(op.gmu) + jw * op.cbc);
        // Cross capacitance d(qbe)/d(vbc): structurally present exactly
        // when the bias-dependent transit time has a VBC dependence.
        if model.tf > 0.0 && model.xtf > 0.0 && model.vtf.is_finite() {
            s.transadmittance(nd.bi, nd.ei, nd.bi, nd.ci, jw * op.cbe_bc);
        }

        s.add(nd.ci, nd.bi, Complex::from_re(op.gmf + op.gmr));
        s.add(nd.ci, nd.ei, Complex::from_re(-op.gmf));
        s.add(nd.ci, nd.ci, Complex::from_re(-op.gmr));
        s.add(nd.ei, nd.bi, Complex::from_re(-(op.gmf + op.gmr)));
        s.add(nd.ei, nd.ei, Complex::from_re(op.gmf));
        s.add(nd.ei, nd.ci, Complex::from_re(op.gmr));

        if model.cjc * (1.0 - model.xcjc.clamp(0.0, 1.0)) > 0.0 {
            s.admittance(nd.b, nd.ci, jw * op.cbx);
        }
        if model.cjs > 0.0 {
            s.admittance(nd.s, nd.ci, jw * op.ccs);
        }
    }

    fn noise(&self, cx: &OpCtx, out: &mut Vec<NoiseGenerator>) {
        let model = self.model(cx.prep);
        let nd = self.nodes;
        let name = &cx.prep.circuit.elements()[self.idx].name;
        let op = self.operating(model, cx.x, cx.opts);
        let four_kt = 4.0 * KB * cx.temp_k();
        out.push(NoiseGenerator::white(
            name,
            "shot-ic",
            nd.ci,
            nd.ei,
            2.0 * Q * op.ic.abs(),
        ));
        out.push(NoiseGenerator::white(
            name,
            "shot-ib",
            nd.bi,
            nd.ei,
            2.0 * Q * op.ib.abs(),
        ));
        if nd.bi != nd.b && op.rbb > 0.0 {
            out.push(NoiseGenerator::white(
                name,
                "thermal-rb",
                nd.b,
                nd.bi,
                four_kt / op.rbb,
            ));
        }
        if nd.ei != nd.e && model.re > 0.0 {
            out.push(NoiseGenerator::white(
                name,
                "thermal-re",
                nd.e,
                nd.ei,
                four_kt / model.re,
            ));
        }
        if nd.ci != nd.c && model.rc > 0.0 {
            out.push(NoiseGenerator::white(
                name,
                "thermal-rc",
                nd.c,
                nd.ci,
                four_kt / model.rc,
            ));
        }
        if model.kf > 0.0 {
            out.push(NoiseGenerator::flicker(
                name,
                "flicker-ib",
                nd.bi,
                nd.ei,
                model.kf * op.ib.abs().powf(model.af),
            ));
        }
    }

    fn bjt_operating(&self, cx: &OpCtx) -> Option<BjtOperating> {
        Some(self.operating(self.model(cx.prep), cx.x, cx.opts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::stamp::{update_all_charges, ChargeBank};
    use crate::circuit::Circuit;
    use crate::devices::junction::{depletion, VT_300K};

    fn test_model() -> BjtModel {
        BjtModel {
            name: "t".into(),
            is_: 1e-16,
            bf: 100.0,
            nf: 1.0,
            vaf: 50.0,
            ikf: 10e-3,
            ise: 1e-18,
            ne: 2.0,
            br: 2.0,
            nr: 1.0,
            cje: 50e-15,
            vje: 0.9,
            mje: 0.35,
            tf: 15e-12,
            xtf: 2.0,
            vtf: 3.0,
            itf: 20e-3,
            cjc: 30e-15,
            vjc: 0.7,
            mjc: 0.4,
            xcjc: 0.8,
            tr: 1e-9,
            cjs: 60e-15,
            vjs: 0.6,
            mjs: 0.3,
            ..BjtModel::default()
        }
    }

    #[test]
    fn cutoff_currents_are_tiny() {
        let op = eval_bjt(&test_model(), 0.0, -3.0, -3.0, VT_300K, 0.0);
        assert!(op.ic.abs() < 1e-12);
        assert!(op.ib.abs() < 1e-12);
    }

    #[test]
    fn active_region_beta() {
        let m = test_model();
        // Forward active, moderate current (well below IKF).
        let op = eval_bjt(&m, 0.62, -2.0, -3.0, VT_300K, 0.0);
        assert!(op.ic > 1e-7 && op.ic < 1e-3, "ic = {}", op.ic);
        let beta = op.beta_dc();
        assert!(beta > 40.0 && beta <= 110.0, "beta = {beta}");
        // KCL: ie = -(ic+ib)
        assert!((op.ie + op.ic + op.ib).abs() < 1e-18);
    }

    #[test]
    fn high_injection_rolls_off_beta_and_gm() {
        let m = test_model();
        let lo = eval_bjt(&m, 0.65, -2.0, -3.0, VT_300K, 0.0);
        let hi = eval_bjt(&m, 0.95, -2.0, -3.0, VT_300K, 0.0);
        // gm/ic at low current ~ 1/vt; at high current it halves.
        let gm_over_ic_lo = lo.gmf / lo.ic;
        let gm_over_ic_hi = hi.gmf / hi.ic;
        assert!(gm_over_ic_hi < 0.75 * gm_over_ic_lo);
    }

    #[test]
    fn early_effect_gives_output_conductance() {
        let m = test_model();
        let a = eval_bjt(&m, 0.65, -1.0, -3.0, VT_300K, 0.0);
        let b = eval_bjt(&m, 0.65, -3.0, -3.0, VT_300K, 0.0);
        // More reverse vbc (higher vce) -> larger collector current.
        assert!(b.ic > a.ic);
        // gmr must be negative (it decreases with rising vbc in fwd active).
        assert!(a.gmr < 0.0);
    }

    #[test]
    fn jacobian_matches_finite_differences() {
        let m = test_model();
        let (vbe, vbc) = (0.68, -1.3);
        let h = 1e-7;
        let base = eval_bjt(&m, vbe, vbc, -3.0, VT_300K, 1e-12);
        let dbe = eval_bjt(&m, vbe + h, vbc, -3.0, VT_300K, 1e-12);
        let dbc = eval_bjt(&m, vbe, vbc + h, -3.0, VT_300K, 1e-12);
        let gmf_num = (dbe.it - base.it) / h;
        let gmr_num = (dbc.it - base.it) / h;
        let gpi_num = (dbe.ibe - base.ibe) / h;
        let gmu_num = (dbc.ibc - base.ibc) / h;
        assert!((base.gmf - gmf_num).abs() / gmf_num.abs() < 1e-4);
        assert!((base.gmr - gmr_num).abs() / gmr_num.abs().max(1e-12) < 1e-3);
        assert!((base.gpi - gpi_num).abs() / gpi_num < 1e-4);
        assert!((base.gmu - gmu_num).abs() / gmu_num.abs().max(1e-15) < 1e-3);
    }

    #[test]
    fn capacitances_match_charge_derivatives() {
        let m = test_model();
        let (vbe, vbc) = (0.7, -1.5);
        let h = 1e-6;
        let base = eval_bjt(&m, vbe, vbc, -3.0, VT_300K, 0.0);
        let dbe = eval_bjt(&m, vbe + h, vbc, -3.0, VT_300K, 0.0);
        let dbc = eval_bjt(&m, vbe, vbc + h, -3.0, VT_300K, 0.0);
        let cbe_num = (dbe.qbe - base.qbe) / h;
        let cbc_num = (dbc.qbc - base.qbc) / h;
        let cbe_bc_num = (dbc.qbe - base.qbe) / h;
        assert!((base.cbe - cbe_num).abs() / cbe_num < 1e-3, "cbe");
        assert!((base.cbc - cbc_num).abs() / cbc_num < 1e-3, "cbc");
        assert!(
            (base.cbe_bc - cbe_bc_num).abs() / cbe_bc_num.abs().max(1e-18) < 1e-2,
            "cbe_bc: {} vs {}",
            base.cbe_bc,
            cbe_bc_num
        );
    }

    #[test]
    fn ft_peaks_then_falls_with_current() {
        let m = test_model();
        let mut fts = Vec::new();
        for k in 0..40 {
            let vbe = 0.55 + 0.012 * k as f64;
            let op = eval_bjt(&m, vbe, -2.0, -3.0, VT_300K, 0.0);
            fts.push((op.ic, op.ft()));
        }
        let peak_idx = fts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).unwrap())
            .unwrap()
            .0;
        // Interior peak: rises from the left edge, falls before the right.
        assert!(peak_idx > 0 && peak_idx < fts.len() - 1, "idx {peak_idx}");
        assert!(fts[peak_idx].1 > 2.0 * fts[0].1);
        assert!(fts[peak_idx].1 > 1.2 * fts.last().unwrap().1);
    }

    #[test]
    fn base_resistance_decreases_with_current() {
        let mut m = test_model();
        m.rb = 100.0;
        m.rbm = 20.0;
        m.irb = 1e-4;
        let lo = eval_bjt(&m, 0.55, -1.0, -3.0, VT_300K, 0.0);
        let hi = eval_bjt(&m, 0.85, -1.0, -3.0, VT_300K, 0.0);
        assert!(lo.rbb > hi.rbb);
        assert!(hi.rbb >= 20.0 && lo.rbb <= 100.0);
    }

    /// A common-emitter stage whose base current flows through RB, so
    /// the external and internal base voltages differ.
    fn biased_stage() -> (Prepared, Vec<f64>) {
        let mut m = test_model();
        m.name = "q".into();
        m.rb = 200.0;
        m.rc = 20.0;
        m.re = 2.0;
        m.xcjc = 0.4;
        let mut c = Circuit::new();
        let (vcc, b, col, e, src) = (
            c.node("vcc"),
            c.node("b"),
            c.node("c"),
            c.node("e"),
            c.node("src"),
        );
        let mi = c.add_bjt_model(m);
        c.vsource("VCC", vcc, Circuit::gnd(), 5.0);
        c.vsource("VB", src, Circuit::gnd(), 1.2);
        c.resistor("RBIAS", src, b, 10e3);
        c.resistor("RL", vcc, col, 2e3);
        c.resistor("RE", e, Circuit::gnd(), 100.0);
        c.bjt("Q1", col, b, e, mi, 1.0);
        let prep = Prepared::compile(&c).unwrap();
        let x = crate::analysis::op::op_eval(&prep, &Options::default())
            .unwrap()
            .x;
        (prep, x)
    }

    fn slot(prep: &Prepared, name: &str) -> usize {
        prep.unknown_names.iter().position(|n| n == name).unwrap()
    }

    /// Q1's area-scaled model card.
    fn q1_model(prep: &Prepared) -> &BjtModel {
        let idx = prep.circuit.find_element("Q1").unwrap();
        prep.scaled_bjt[idx].as_ref().unwrap()
    }

    /// The OP record evaluates the extrinsic B-C' junction across the
    /// external base and the internal collector, as the AC and
    /// transient stamps do, not at the internal `vbc`.
    #[test]
    fn bjt_operating_evaluates_cbx_at_external_base() {
        let (prep, x) = biased_stage();
        let (b, bi, ci) = (
            slot(&prep, "v(b)"),
            slot(&prep, "v(Q1.bi)"),
            slot(&prep, "v(Q1.ci)"),
        );
        let opts = Options::default();
        let q = crate::analysis::op::bjt_operating(&prep, &x, &opts, "Q1").unwrap();
        assert!(q.ib > 1e-7, "base current {} A", q.ib);
        assert!(x[b] - x[bi] > 1e-5, "RB drop {} V", x[b] - x[bi]);
        let m = q1_model(&prep);
        let (qbx, cbx) = depletion(x[b] - x[ci], m.cjc * (1.0 - m.xcjc), m.vjc, m.mjc, m.fc);
        assert_eq!(q.cbx.to_bits(), cbx.to_bits());
        assert_eq!(q.qbx.to_bits(), qbx.to_bits());
    }

    /// The transient charge commit evaluates only the four charges, and
    /// gets the bits [`eval_bjt`] computes for `qbe`, `qbc` and `qcs`;
    /// `qbx` is [`depletion`] at the external-base voltage. Checked at
    /// the operating point, in saturation and in cutoff.
    #[test]
    fn charge_commit_matches_eval_bjt_bitwise() {
        let (prep, x_op) = biased_stage();
        let opts = Options::default();
        let (b, bi, ci, ei) = (
            slot(&prep, "v(b)"),
            slot(&prep, "v(Q1.bi)"),
            slot(&prep, "v(Q1.ci)"),
            slot(&prep, "v(Q1.ei)"),
        );
        let m = q1_model(&prep);
        let mut bank = ChargeBank::new(&prep);
        for (k, st) in bank.states.iter_mut().enumerate() {
            *st = ChargeState {
                q: 1e-15 * k as f64,
                i: -1e-6 * k as f64,
            };
        }
        let b0 = bank.base[prep.circuit.find_element("Q1").unwrap()];
        let saturated = {
            let mut x = x_op.clone();
            x[ci] = x[bi] - 0.3;
            x
        };
        let cutoff = {
            let mut x = x_op.clone();
            x[bi] = x[ei] - 0.5;
            x
        };
        for x in [x_op, saturated, cutoff] {
            let a = 4e11;
            let mode = Mode::Tran {
                time: 1e-9,
                a,
                be: false,
                bank: &bank,
                x_prev: &x,
            };
            let mut out = bank.states.clone();
            update_all_charges(&prep, &x, &opts, &mode, &mut out);
            let (vbe, vbc, vcs) = (x[bi] - x[ei], x[bi] - x[ci], -x[ci]);
            let op = eval_bjt(m, vbe, vbc, vcs, opts.vt, opts.gmin);
            let qbx = depletion(x[b] - x[ci], m.cjc * (1.0 - m.xcjc), m.vjc, m.mjc, m.fc).0;
            for (k, q) in [op.qbe, op.qbc, qbx, op.qcs].into_iter().enumerate() {
                let prev = bank.states[b0 + k];
                let got = out[b0 + k];
                assert_eq!(got.q.to_bits(), q.to_bits(), "slot {k} charge");
                let i = a * (q - prev.q) - prev.i;
                assert_eq!(got.i.to_bits(), i.to_bits(), "slot {k} current");
            }
        }
    }

    #[test]
    fn saturation_has_both_junctions_conducting() {
        let m = test_model();
        let op = eval_bjt(&m, 0.75, 0.6, -3.0, VT_300K, 0.0);
        assert!(op.ibc > 1e-9);
        assert!(op.ibe > 1e-9);
    }
}
