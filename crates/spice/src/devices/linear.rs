//! Linear devices: R, C, L, independent sources and the four controlled
//! sources. Their real stamps never depend on the solution vector, so
//! the Newton loop caches them in the replay baseline.

use super::{
    AcCtx, AcStamper, Device, EdgeKind, NoiseGenerator, OpCtx, RealCtx, RealStamper, Stamper,
    TopologyEdge,
};
use crate::analysis::stamp::{ChargeState, Mode, NonlinMemory};
use crate::circuit::{read_slot, Circuit, ElementKind};
use crate::devices::KB;
use crate::wave::SourceWave;
use ahfic_num::{Complex, Scalar};

/// DC/transient value of an independent source waveform.
fn source_value(wave: &SourceWave, mode: &Mode) -> f64 {
    match mode {
        Mode::Dc { source_scale } => wave.dc_value() * source_scale,
        Mode::Tran { time, .. } => wave.eval(*time),
    }
}

/// Branch-row pattern shared by every element that adds a branch
/// current unknown `k` between terminals `p` and `n`.
fn branch_rows<T: Scalar>(s: &mut Stamper<T>, p: usize, n: usize, k: usize) {
    s.add(p, k, T::ONE);
    s.add(n, k, -T::ONE);
    s.add(k, p, T::ONE);
    s.add(k, n, -T::ONE);
}

/// Linear resistor.
#[derive(Debug)]
pub(crate) struct Resistor {
    pub idx: usize,
    pub p: usize,
    pub n: usize,
}

impl Resistor {
    fn r(&self, circuit: &Circuit) -> f64 {
        let ElementKind::Resistor { r, .. } = circuit.elements()[self.idx].kind else {
            unreachable!("resistor device on non-resistor element")
        };
        r
    }
}

impl Device for Resistor {
    fn index(&self) -> usize {
        self.idx
    }

    fn topology(&self, out: &mut Vec<TopologyEdge>) {
        out.push(TopologyEdge::new(self.p, self.n, EdgeKind::Conductive));
    }

    fn stamp_real(&self, cx: &RealCtx, _mem: &mut NonlinMemory, s: &mut RealStamper) {
        s.admittance(self.p, self.n, 1.0 / self.r(&cx.prep.circuit));
    }

    fn stamp_ac(&self, cx: &AcCtx, s: &mut AcStamper) {
        s.admittance(
            self.p,
            self.n,
            Complex::from_re(1.0 / self.r(&cx.prep.circuit)),
        );
    }

    fn noise(&self, cx: &OpCtx, out: &mut Vec<NoiseGenerator>) {
        let r = self.r(&cx.prep.circuit);
        let psd = 4.0 * KB * cx.temp_k() / r;
        let name = &cx.prep.circuit.elements()[self.idx].name;
        out.push(NoiseGenerator::white(name, "thermal", self.p, self.n, psd));
    }
}

/// Linear capacitor: open at DC, trapezoidal companion in transient.
#[derive(Debug)]
pub(crate) struct Capacitor {
    pub idx: usize,
    pub p: usize,
    pub n: usize,
}

impl Capacitor {
    fn c(&self, circuit: &Circuit) -> f64 {
        let ElementKind::Capacitor { c, .. } = circuit.elements()[self.idx].kind else {
            unreachable!("capacitor device on non-capacitor element")
        };
        c
    }
}

impl Device for Capacitor {
    fn index(&self) -> usize {
        self.idx
    }

    fn topology(&self, out: &mut Vec<TopologyEdge>) {
        out.push(TopologyEdge::new(self.p, self.n, EdgeKind::Capacitive));
    }

    fn charge_slots(&self) -> usize {
        1
    }

    fn stamp_real(&self, cx: &RealCtx, _mem: &mut NonlinMemory, s: &mut RealStamper) {
        if let Mode::Tran { a, bank, .. } = cx.mode {
            let c = self.c(&cx.prep.circuit);
            let st = bank.states[bank.base[self.idx]];
            // Trapezoidal companion i = geq*v - (a*q_prev + i_prev): the
            // equivalent source must not be written in terms of the
            // current iterate, or the cached replay baseline and a fresh
            // re-stamp would differ by rounding.
            s.admittance(self.p, self.n, a * c);
            s.current(self.p, self.n, -(a * st.q + st.i));
        }
    }

    fn update_charges(&self, cx: &RealCtx, out: &mut [ChargeState]) {
        let Mode::Tran { a, bank, .. } = cx.mode else {
            return;
        };
        let c = self.c(&cx.prep.circuit);
        let v = read_slot(cx.x, self.p) - read_slot(cx.x, self.n);
        let st = bank.states[bank.base[self.idx]];
        let q = c * v;
        out[0] = ChargeState {
            q,
            i: a * (q - st.q) - st.i,
        };
    }

    fn stamp_ac(&self, cx: &AcCtx, s: &mut AcStamper) {
        let jw = Complex::new(0.0, cx.omega);
        s.admittance(self.p, self.n, jw * self.c(&cx.prep.circuit));
    }
}

/// Linear inductor with a branch-current unknown.
#[derive(Debug)]
pub(crate) struct Inductor {
    pub idx: usize,
    pub p: usize,
    pub n: usize,
    pub k: usize,
}

impl Inductor {
    fn l(&self, circuit: &Circuit) -> f64 {
        let ElementKind::Inductor { l, .. } = circuit.elements()[self.idx].kind else {
            unreachable!("inductor device on non-inductor element")
        };
        l
    }
}

impl Device for Inductor {
    fn index(&self) -> usize {
        self.idx
    }

    fn topology(&self, out: &mut Vec<TopologyEdge>) {
        out.push(TopologyEdge::new(self.p, self.n, EdgeKind::Inductive));
    }

    fn stamp_real(&self, cx: &RealCtx, _mem: &mut NonlinMemory, s: &mut RealStamper) {
        let l = self.l(&cx.prep.circuit);
        branch_rows(s, self.p, self.n, self.k);
        match cx.mode {
            Mode::Dc { .. } => {
                // Tiny series resistance keeps the branch row non-singular
                // when an inductor shorts two voltage sources.
                s.add(self.k, self.k, -1e-9);
            }
            Mode::Tran { a, be, x_prev, .. } => {
                // `v = L·di/dt`: trapezoidal `v + v_prev = L·a·(i − i_prev)`,
                // backward Euler `v = L·a·(i − i_prev)`.
                let i_prev = x_prev[self.k];
                let v_prev = read_slot(x_prev, self.p) - read_slot(x_prev, self.n);
                s.add(self.k, self.k, -l * a);
                let rhs = if *a == 0.0 {
                    0.0
                } else if *be {
                    -(l * a * i_prev)
                } else {
                    -(l * a * i_prev + v_prev)
                };
                s.rhs_add(self.k, rhs);
            }
        }
    }

    fn stamp_ac(&self, cx: &AcCtx, s: &mut AcStamper) {
        let jw = Complex::new(0.0, cx.omega);
        branch_rows(s, self.p, self.n, self.k);
        s.add(self.k, self.k, -(jw * self.l(&cx.prep.circuit)));
    }
}

/// Independent voltage source.
#[derive(Debug)]
pub(crate) struct VoltageSource {
    pub idx: usize,
    pub p: usize,
    pub n: usize,
    pub k: usize,
}

impl Device for VoltageSource {
    fn index(&self) -> usize {
        self.idx
    }

    fn topology(&self, out: &mut Vec<TopologyEdge>) {
        out.push(TopologyEdge::new(self.p, self.n, EdgeKind::VoltageDef));
    }

    fn stamp_real(&self, cx: &RealCtx, _mem: &mut NonlinMemory, s: &mut RealStamper) {
        let ElementKind::Vsource { wave, .. } = &cx.prep.circuit.elements()[self.idx].kind else {
            unreachable!("vsource device on non-vsource element")
        };
        branch_rows(s, self.p, self.n, self.k);
        s.rhs_add(self.k, source_value(wave, cx.mode));
    }

    fn stamp_ac(&self, cx: &AcCtx, s: &mut AcStamper) {
        let ElementKind::Vsource { ac, .. } = &cx.prep.circuit.elements()[self.idx].kind else {
            unreachable!("vsource device on non-vsource element")
        };
        branch_rows(s, self.p, self.n, self.k);
        s.rhs_add(
            self.k,
            Complex::from_polar(ac.mag, ac.phase_deg.to_radians()),
        );
    }

    fn breakpoints(&self, circuit: &Circuit, t_stop: f64, out: &mut Vec<f64>) {
        if let ElementKind::Vsource { wave, .. } = &circuit.elements()[self.idx].kind {
            out.extend(wave.breakpoints(t_stop));
        }
    }
}

/// Independent current source.
#[derive(Debug)]
pub(crate) struct CurrentSource {
    pub idx: usize,
    pub p: usize,
    pub n: usize,
}

impl Device for CurrentSource {
    fn index(&self) -> usize {
        self.idx
    }

    fn topology(&self, out: &mut Vec<TopologyEdge>) {
        out.push(TopologyEdge::new(self.p, self.n, EdgeKind::CurrentForcing));
    }

    fn stamp_real(&self, cx: &RealCtx, _mem: &mut NonlinMemory, s: &mut RealStamper) {
        let ElementKind::Isource { wave, .. } = &cx.prep.circuit.elements()[self.idx].kind else {
            unreachable!("isource device on non-isource element")
        };
        s.current(self.p, self.n, source_value(wave, cx.mode));
    }

    fn stamp_ac(&self, cx: &AcCtx, s: &mut AcStamper) {
        let ElementKind::Isource { ac, .. } = &cx.prep.circuit.elements()[self.idx].kind else {
            unreachable!("isource device on non-isource element")
        };
        s.current(
            self.p,
            self.n,
            Complex::from_polar(ac.mag, ac.phase_deg.to_radians()),
        );
    }

    fn breakpoints(&self, circuit: &Circuit, t_stop: f64, out: &mut Vec<f64>) {
        if let ElementKind::Isource { wave, .. } = &circuit.elements()[self.idx].kind {
            out.extend(wave.breakpoints(t_stop));
        }
    }
}

/// Voltage-controlled voltage source `E`.
#[derive(Debug)]
pub(crate) struct Vcvs {
    pub idx: usize,
    pub p: usize,
    pub n: usize,
    pub cp: usize,
    pub cn: usize,
    pub k: usize,
}

impl Vcvs {
    fn gain(&self, circuit: &Circuit) -> f64 {
        let ElementKind::Vcvs { gain, .. } = circuit.elements()[self.idx].kind else {
            unreachable!("vcvs device on non-vcvs element")
        };
        gain
    }
}

impl Device for Vcvs {
    fn index(&self) -> usize {
        self.idx
    }

    fn topology(&self, out: &mut Vec<TopologyEdge>) {
        out.push(TopologyEdge::new(self.p, self.n, EdgeKind::VoltageDef));
        out.push(TopologyEdge::new(self.cp, self.cn, EdgeKind::Sense));
    }

    fn stamp_real(&self, cx: &RealCtx, _mem: &mut NonlinMemory, s: &mut RealStamper) {
        let gain = self.gain(&cx.prep.circuit);
        branch_rows(s, self.p, self.n, self.k);
        s.add(self.k, self.cp, -gain);
        s.add(self.k, self.cn, gain);
    }

    fn stamp_ac(&self, cx: &AcCtx, s: &mut AcStamper) {
        let gain = self.gain(&cx.prep.circuit);
        branch_rows(s, self.p, self.n, self.k);
        s.add(self.k, self.cp, Complex::from_re(-gain));
        s.add(self.k, self.cn, Complex::from_re(gain));
    }
}

/// Voltage-controlled current source `G`.
#[derive(Debug)]
pub(crate) struct Vccs {
    pub idx: usize,
    pub p: usize,
    pub n: usize,
    pub cp: usize,
    pub cn: usize,
}

impl Vccs {
    fn gm(&self, circuit: &Circuit) -> f64 {
        let ElementKind::Vccs { gm, .. } = circuit.elements()[self.idx].kind else {
            unreachable!("vccs device on non-vccs element")
        };
        gm
    }
}

impl Device for Vccs {
    fn index(&self) -> usize {
        self.idx
    }

    fn topology(&self, out: &mut Vec<TopologyEdge>) {
        out.push(TopologyEdge::new(self.p, self.n, EdgeKind::CurrentForcing));
        out.push(TopologyEdge::new(self.cp, self.cn, EdgeKind::Sense));
    }

    fn stamp_real(&self, cx: &RealCtx, _mem: &mut NonlinMemory, s: &mut RealStamper) {
        s.transadmittance(self.p, self.n, self.cp, self.cn, self.gm(&cx.prep.circuit));
    }

    fn stamp_ac(&self, cx: &AcCtx, s: &mut AcStamper) {
        s.transadmittance(
            self.p,
            self.n,
            self.cp,
            self.cn,
            Complex::from_re(self.gm(&cx.prep.circuit)),
        );
    }
}

/// Current-controlled current source `F`; `j` is the branch slot of the
/// sensing voltage source.
#[derive(Debug)]
pub(crate) struct Cccs {
    pub idx: usize,
    pub p: usize,
    pub n: usize,
    pub j: usize,
}

impl Cccs {
    fn gain(&self, circuit: &Circuit) -> f64 {
        let ElementKind::Cccs { gain, .. } = &circuit.elements()[self.idx].kind else {
            unreachable!("cccs device on non-cccs element")
        };
        *gain
    }
}

impl Device for Cccs {
    fn index(&self) -> usize {
        self.idx
    }

    fn topology(&self, out: &mut Vec<TopologyEdge>) {
        out.push(TopologyEdge::new(self.p, self.n, EdgeKind::CurrentForcing));
    }

    fn stamp_real(&self, cx: &RealCtx, _mem: &mut NonlinMemory, s: &mut RealStamper) {
        let gain = self.gain(&cx.prep.circuit);
        s.add(self.p, self.j, gain);
        s.add(self.n, self.j, -gain);
    }

    fn stamp_ac(&self, cx: &AcCtx, s: &mut AcStamper) {
        let gain = self.gain(&cx.prep.circuit);
        s.add(self.p, self.j, Complex::from_re(gain));
        s.add(self.n, self.j, Complex::from_re(-gain));
    }
}

/// Current-controlled voltage source `H`.
#[derive(Debug)]
pub(crate) struct Ccvs {
    pub idx: usize,
    pub p: usize,
    pub n: usize,
    pub j: usize,
    pub k: usize,
}

impl Ccvs {
    fn r(&self, circuit: &Circuit) -> f64 {
        let ElementKind::Ccvs { r, .. } = &circuit.elements()[self.idx].kind else {
            unreachable!("ccvs device on non-ccvs element")
        };
        *r
    }
}

impl Device for Ccvs {
    fn index(&self) -> usize {
        self.idx
    }

    fn topology(&self, out: &mut Vec<TopologyEdge>) {
        out.push(TopologyEdge::new(self.p, self.n, EdgeKind::VoltageDef));
    }

    fn stamp_real(&self, cx: &RealCtx, _mem: &mut NonlinMemory, s: &mut RealStamper) {
        branch_rows(s, self.p, self.n, self.k);
        s.add(self.k, self.j, -self.r(&cx.prep.circuit));
    }

    fn stamp_ac(&self, cx: &AcCtx, s: &mut AcStamper) {
        branch_rows(s, self.p, self.n, self.k);
        s.add(self.k, self.j, Complex::from_re(-self.r(&cx.prep.circuit)));
    }
}
