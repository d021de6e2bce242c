//! Block-diagram system simulation: nets, instances, dataflow
//! scheduling and fixed-step execution.
//!
//! A run advances in frames of 256 samples. Each block outside
//! a feedback loop computes a whole frame per call
//! ([`Block::tick_frame`]); the members of a loop run sample by sample
//! inside the frame, because each reads the others' previous sample.

use crate::block::Block;
use crate::error::{AhdlError, Result};
use crate::probe::Trace;
use ahfic_trace::TraceHandle;
use std::collections::HashMap;

/// Identifier of a signal net.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(usize);

impl NetId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Samples a block outside a feedback loop computes per call.
const FRAME_LEN: usize = 256;

struct Instance {
    name: String,
    block: Box<dyn Block>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
}

/// A scheduled block and the slots of a run's signal buffer it reads
/// and writes at frame sample 0 (laid out as [`System::schedule`]
/// describes).
struct Node {
    block: usize,
    reads: Vec<usize>,
    writes: Vec<usize>,
}

/// One entry of the execution order.
enum Step {
    /// A block outside every feedback loop: one frame per call.
    Block(Node),
    /// The members of one feedback loop, or a block that reads its own
    /// output, in insertion order: they run sample by sample.
    Loop(Vec<Node>),
}

/// A behavioral system: blocks wired by named nets, simulated with a
/// fixed timestep (`dt = 1/fs`).
///
/// Execution order is a topological sort of the dataflow graph's
/// strongly connected components. A feedback loop's members run in
/// insertion order, and a member reads the previous-tick value of a loop
/// input whose driver comes at or after it in that order (a one-sample
/// delay, the standard discrete-time semantics). A block downstream of a
/// loop reads the loop's current sample, whatever the order of `add`
/// calls.
///
/// # Example
///
/// ```
/// use ahfic_ahdl::system::System;
/// use ahfic_ahdl::blocks::arith::{Constant, Gain};
/// let mut sys = System::new();
/// let a = sys.net("a");
/// let b = sys.net("b");
/// sys.add("src", Constant::new(2.0), &[], &[a])?;
/// sys.add("amp", Gain::new(10.0), &[a], &[b])?;
/// let trace = sys.run(1e6, 10e-6)?;
/// assert_eq!(*trace.signal("b")?.last().unwrap(), 20.0);
/// # Ok::<(), ahfic_ahdl::error::AhdlError>(())
/// ```
#[derive(Default)]
pub struct System {
    net_names: Vec<String>,
    net_lookup: HashMap<String, NetId>,
    instances: Vec<Instance>,
    driven: Vec<bool>,
    trace: TraceHandle,
}

impl System {
    /// Creates an empty system.
    pub fn new() -> Self {
        System::default()
    }

    /// Interns (or retrieves) a named net.
    pub fn net(&mut self, name: &str) -> NetId {
        if let Some(&id) = self.net_lookup.get(name) {
            return id;
        }
        let id = NetId(self.net_names.len());
        self.net_names.push(name.to_string());
        self.net_lookup.insert(name.to_string(), id);
        self.driven.push(false);
        id
    }

    /// Looks up an existing net.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_lookup.get(name).copied()
    }

    /// Net names in id order.
    pub fn net_names(&self) -> &[String] {
        &self.net_names
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.instances.len()
    }

    /// Adds a block wired to the given nets.
    ///
    /// # Errors
    ///
    /// Returns [`AhdlError::Wiring`] when the arity doesn't match the
    /// block, a net is driven twice, or the instance name is taken.
    pub fn add(
        &mut self,
        name: &str,
        block: impl Block + 'static,
        inputs: &[NetId],
        outputs: &[NetId],
    ) -> Result<()> {
        self.add_boxed(name, Box::new(block), inputs, outputs)
    }

    /// Adds an already-boxed block (for dynamically chosen kinds).
    ///
    /// # Errors
    ///
    /// As [`Self::add`].
    pub fn add_boxed(
        &mut self,
        name: &str,
        block: Box<dyn Block>,
        inputs: &[NetId],
        outputs: &[NetId],
    ) -> Result<()> {
        if self.instances.iter().any(|i| i.name == name) {
            return Err(AhdlError::Wiring(format!("duplicate block name {name}")));
        }
        if inputs.len() != block.num_inputs() {
            return Err(AhdlError::Wiring(format!(
                "{name}: block takes {} inputs, wired {}",
                block.num_inputs(),
                inputs.len()
            )));
        }
        if outputs.len() != block.num_outputs() {
            return Err(AhdlError::Wiring(format!(
                "{name}: block drives {} outputs, wired {}",
                block.num_outputs(),
                outputs.len()
            )));
        }
        for &o in outputs {
            if self.driven[o.0] {
                return Err(AhdlError::Wiring(format!(
                    "net {} driven by more than one block",
                    self.net_names[o.0]
                )));
            }
            self.driven[o.0] = true;
        }
        self.instances.push(Instance {
            name: name.to_string(),
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            block,
        });
        Ok(())
    }

    /// Execution order: Kahn's algorithm (LIFO, seeded in insertion
    /// order) over the strongly connected components of the block graph,
    /// so an acyclic graph runs in plain topological order.
    ///
    /// Net `r`'s samples of a frame sit from slot `r * stride + 1`, and
    /// its last sample of the previous frame at `r * stride`. A loop
    /// member reads a loop net driven at or after it one slot early: the
    /// previous sample.
    fn schedule(&self, stride: usize) -> Vec<Step> {
        let n = self.instances.len();
        let mut driver_of = vec![None; self.net_names.len()];
        for (bi, inst) in self.instances.iter().enumerate() {
            for &o in &inst.outputs {
                driver_of[o.0] = Some(bi);
            }
        }
        // `edges[src]` lists each reader once per input it takes from
        // `src`, readers in insertion order.
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut self_loop = vec![false; n];
        for (bi, inst) in self.instances.iter().enumerate() {
            for &i in &inst.inputs {
                match driver_of[i.0] {
                    Some(src) if src == bi => self_loop[bi] = true,
                    Some(src) => edges[src].push(bi),
                    None => {}
                }
            }
        }
        // Number the components in order of their first member; `pos` is
        // a block's place among its component's members.
        let scc = strongly_connected(&edges);
        let mut id = vec![usize::MAX; scc.len()];
        let mut comp = vec![0; n];
        let mut pos = vec![0; n];
        let mut members: Vec<Vec<usize>> = Vec::new();
        for b in 0..n {
            if id[scc[b]] == usize::MAX {
                id[scc[b]] = members.len();
                members.push(Vec::new());
            }
            comp[b] = id[scc[b]];
            pos[b] = members[comp[b]].len();
            members[comp[b]].push(b);
        }
        let mut indegree = vec![0usize; members.len()];
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); members.len()];
        for (src, readers) in edges.iter().enumerate() {
            for &r in readers {
                if comp[r] != comp[src] {
                    succ[comp[src]].push(comp[r]);
                    indegree[comp[r]] += 1;
                }
            }
        }
        let node = |b: usize| {
            let inst = &self.instances[b];
            let reads = inst
                .inputs
                .iter()
                .map(|&net| {
                    let delayed =
                        driver_of[net.0].is_some_and(|d| comp[d] == comp[b] && pos[d] >= pos[b]);
                    net.0 * stride + usize::from(!delayed)
                })
                .collect();
            let writes = inst.outputs.iter().map(|&net| net.0 * stride + 1).collect();
            Node {
                block: b,
                reads,
                writes,
            }
        };
        let mut order = Vec::with_capacity(members.len());
        let mut stack: Vec<usize> = (0..members.len()).filter(|&c| indegree[c] == 0).collect();
        while let Some(c) = stack.pop() {
            for &next in &succ[c] {
                indegree[next] -= 1;
                if indegree[next] == 0 {
                    stack.push(next);
                }
            }
            order.push(match members[c][..] {
                [b] if !self_loop[b] => Step::Block(node(b)),
                _ => Step::Loop(members[c].iter().map(|&b| node(b)).collect()),
            });
        }
        order
    }

    /// Installs a telemetry handle; every subsequent [`Self::run`] /
    /// [`Self::run_probed`] emits an `ahdl.run` span with step and
    /// block counters.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Resets every block's internal state.
    pub fn reset(&mut self) {
        for inst in &mut self.instances {
            inst.block.reset();
        }
    }

    /// Runs for `duration` seconds at sample rate `fs`, recording every
    /// net. Use [`Self::run_probed`] to record a subset (large systems /
    /// long runs).
    ///
    /// # Errors
    ///
    /// Returns [`AhdlError::Simulation`] for non-positive `fs`/`duration`
    /// or non-finite signal values (divergence).
    pub fn run(&mut self, fs: f64, duration: f64) -> Result<Trace> {
        let all: Vec<NetId> = (0..self.net_names.len()).map(NetId).collect();
        self.run_probed(fs, duration, &all)
    }

    /// Runs, recording only the given nets.
    ///
    /// # Errors
    ///
    /// As [`Self::run`].
    pub fn run_probed(&mut self, fs: f64, duration: f64, probes: &[NetId]) -> Result<Trace> {
        self.run_framed(fs, duration, probes, FRAME_LEN)
    }

    /// [`Self::run_probed`] with `frame_len` samples per block call
    /// outside feedback loops. Every frame length gives the same trace,
    /// bit for bit, and the same error.
    pub(crate) fn run_framed(
        &mut self,
        fs: f64,
        duration: f64,
        probes: &[NetId],
        frame_len: usize,
    ) -> Result<Trace> {
        assert!(frame_len > 0, "frame length must be positive");
        if fs <= 0.0 || duration <= 0.0 {
            return Err(AhdlError::Simulation(
                "fs and duration must be positive".into(),
            ));
        }
        let tr = self.trace.tracer();
        let span = tr.span("ahdl.run");
        let dt = 1.0 / fs;
        let steps = (duration * fs).round() as usize;
        let stride = frame_len + 1;
        let order = self.schedule(stride);
        let nets = self.net_names.len();
        // Every net's frame, laid out as `schedule` describes.
        let mut signals = vec![0.0f64; nets * stride];
        // Port-major scratch for the block being run.
        let widest = |ports: fn(&Instance) -> usize| {
            self.instances.iter().map(ports).max().unwrap_or(0) * frame_len
        };
        let mut x = vec![0.0f64; widest(|i| i.inputs.len())];
        let mut y = vec![0.0f64; widest(|i| i.outputs.len())];
        let probe_names: Vec<String> = probes
            .iter()
            .map(|&p| self.net_names[p.0].clone())
            .collect();
        let mut trace = Trace::with_capacity(fs, &probe_names, steps);

        let mut k0 = 0;
        while k0 < steps {
            let len = frame_len.min(steps - k0);
            // The earliest non-finite sample and its block. Blocks after
            // it then run only the samples before it, so none reads a
            // non-finite value and a later block that goes bad earlier
            // still wins, as in a sample-by-sample run.
            let mut bad = None;
            let mut n = len;
            for step in &order {
                if n == 0 {
                    break;
                }
                match step {
                    Step::Block(node) => {
                        let (ni, no) = (node.reads.len(), node.writes.len());
                        for (xp, &at) in x.chunks_exact_mut(n).zip(&node.reads) {
                            xp.copy_from_slice(&signals[at..at + n]);
                        }
                        self.instances[node.block].block.tick_frame(
                            k0,
                            n,
                            dt,
                            &x[..ni * n],
                            &mut y[..no * n],
                        );
                        let mut first_bad = n;
                        for (yp, &at) in y.chunks_exact(n).zip(&node.writes) {
                            if let Some(j) = yp.iter().position(|v| !v.is_finite()) {
                                first_bad = first_bad.min(j);
                            }
                            signals[at..at + n].copy_from_slice(yp);
                        }
                        if first_bad < n {
                            bad = Some((first_bad, node.block));
                            n = first_bad;
                        }
                    }
                    Step::Loop(nodes) => {
                        'samples: for j in 0..n {
                            let t = (k0 + j) as f64 * dt;
                            for node in nodes {
                                let xs = &mut x[..node.reads.len()];
                                for (slot, &at) in xs.iter_mut().zip(&node.reads) {
                                    *slot = signals[at + j];
                                }
                                let ys = &mut y[..node.writes.len()];
                                self.instances[node.block].block.tick(t, dt, xs, ys);
                                let mut finite = true;
                                for (&at, &v) in node.writes.iter().zip(ys.iter()) {
                                    finite &= v.is_finite();
                                    signals[at + j] = v;
                                }
                                if !finite {
                                    bad = Some((j, node.block));
                                    n = j;
                                    break 'samples;
                                }
                            }
                        }
                    }
                }
            }
            if let Some((j, b)) = bad {
                let t = (k0 + j) as f64 * dt;
                return Err(AhdlError::Simulation(format!(
                    "block {} produced a non-finite value at t={t:.3e}",
                    self.instances[b].name
                )));
            }
            trace.push_frame(
                len,
                probes
                    .iter()
                    .map(|p| &signals[p.0 * stride + 1..p.0 * stride + 1 + len]),
            );
            for r in 0..nets {
                signals[r * stride] = signals[r * stride + len];
            }
            k0 += len;
        }
        tr.counter("ahdl.steps", steps as f64);
        tr.counter("ahdl.blocks", self.instances.len() as f64);
        tr.counter("ahdl.nets", self.net_names.len() as f64);
        span.end();
        Ok(trace)
    }
}

/// Strongly connected components of a directed graph (Tarjan's
/// algorithm, iterative): the component id of each node.
fn strongly_connected(edges: &[Vec<usize>]) -> Vec<usize> {
    const UNSEEN: usize = usize::MAX;
    let n = edges.len();
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut comp = vec![UNSEEN; n];
    let mut next_index = 0;
    let mut next_comp = 0;
    // Depth-first call stack: (node, next edge to follow). A node is
    // pushed with edge 0 only once, when first reached.
    let mut calls: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        calls.push((root, 0));
        while let Some((v, e)) = calls.pop() {
            if e == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                on_stack[v] = true;
                stack.push(v);
            }
            if let Some(&w) = edges[v].get(e) {
                calls.push((v, e + 1));
                if index[w] == UNSEEN {
                    calls.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            if let Some(&(u, _)) = calls.last() {
                low[u] = low[u].min(low[v]);
            }
            if low[v] == index[v] {
                while let Some(w) = stack.pop() {
                    on_stack[w] = false;
                    comp[w] = next_comp;
                    if w == v {
                        break;
                    }
                }
                next_comp += 1;
            }
        }
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::arith::{Adder, Constant, Gain, Mixer};
    use crate::blocks::osc::SineSource;

    #[test]
    fn chain_executes_in_topo_order_regardless_of_insertion() {
        let mut sys = System::new();
        let a = sys.net("a");
        let b = sys.net("b");
        let c = sys.net("c");
        // Insert downstream block first.
        sys.add("g2", Gain::new(3.0), &[b], &[c]).unwrap();
        sys.add("g1", Gain::new(2.0), &[a], &[b]).unwrap();
        sys.add("src", Constant::new(1.0), &[], &[a]).unwrap();
        let trace = sys.run(1e3, 5e-3).unwrap();
        // With correct scheduling the value propagates within one tick.
        assert_eq!(trace.signal("c").unwrap()[0], 6.0);
    }

    #[test]
    fn mixer_products_appear() {
        let mut sys = System::new();
        let rf = sys.net("rf");
        let lo = sys.net("lo");
        let ifo = sys.net("if");
        sys.add("rf", SineSource::new(10.0, 1.0), &[], &[rf])
            .unwrap();
        sys.add("lo", SineSource::new(8.0, 1.0), &[], &[lo])
            .unwrap();
        sys.add("mix", Mixer::new(1.0), &[rf, lo], &[ifo]).unwrap();
        let trace = sys.run(1e3, 1.0).unwrap();
        let y = trace.signal("if").unwrap();
        // Product contains 2 Hz and 18 Hz at amplitude 1/2.
        let a2 = ahfic_num::goertzel::tone_amplitude(y, 1e3, 2.0).abs();
        let a18 = ahfic_num::goertzel::tone_amplitude(y, 1e3, 18.0).abs();
        assert!((a2 - 0.5).abs() < 1e-3, "a2 = {a2}");
        assert!((a18 - 0.5).abs() < 1e-3, "a18 = {a18}");
    }

    #[test]
    fn feedback_loop_runs_with_unit_delay() {
        // y[n] = 0.5*y[n-1] + 1  -> converges to 2.
        let mut sys = System::new();
        let y = sys.net("y");
        let half = sys.net("half");
        let one = sys.net("one");
        sys.add("src", Constant::new(1.0), &[], &[one]).unwrap();
        sys.add("fb", Gain::new(0.5), &[y], &[half]).unwrap();
        sys.add("sum", Adder::new(2), &[one, half], &[y]).unwrap();
        let trace = sys.run(1e3, 0.05).unwrap();
        let yv = trace.signal("y").unwrap();
        assert!((yv.last().unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn wiring_errors() {
        let mut sys = System::new();
        let a = sys.net("a");
        let b = sys.net("b");
        assert!(sys.add("bad", Gain::new(1.0), &[a, b], &[a]).is_err());
        sys.add("ok", Constant::new(0.0), &[], &[a]).unwrap();
        assert!(
            sys.add("dup", Constant::new(1.0), &[], &[a]).is_err(),
            "double-driven net"
        );
        assert!(sys.add("ok", Constant::new(1.0), &[], &[b]).is_err());
    }

    #[test]
    fn undriven_net_reads_zero() {
        let mut sys = System::new();
        let a = sys.net("floating");
        let b = sys.net("out");
        sys.add("g", Gain::new(5.0), &[a], &[b]).unwrap();
        let trace = sys.run(1e3, 1e-3).unwrap();
        assert!(trace.signal("out").unwrap().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn run_probed_limits_recording() {
        let mut sys = System::new();
        let a = sys.net("a");
        let b = sys.net("b");
        sys.add("src", Constant::new(1.0), &[], &[a]).unwrap();
        sys.add("g", Gain::new(2.0), &[a], &[b]).unwrap();
        let trace = sys.run_probed(1e3, 1e-2, &[b]).unwrap();
        assert!(trace.signal("b").is_ok());
        assert!(trace.signal("a").is_err());
    }

    #[test]
    fn bad_run_params_rejected() {
        let mut sys = System::new();
        let _ = sys.net("a");
        assert!(sys.run(0.0, 1.0).is_err());
        assert!(sys.run(1e3, 0.0).is_err());
    }

    /// The loop `y[n] = 0.5·y[n−1] + 1` with a unit-gain probe on `y`.
    fn halving_loop(probe_first: bool) -> System {
        let mut sys = System::new();
        let y = sys.net("y");
        let half = sys.net("half");
        let one = sys.net("one");
        let probe = sys.net("probe");
        if probe_first {
            sys.add("probe", Gain::new(1.0), &[y], &[probe]).unwrap();
        }
        sys.add("src", Constant::new(1.0), &[], &[one]).unwrap();
        sys.add("fb", Gain::new(0.5), &[y], &[half]).unwrap();
        sys.add("sum", Adder::new(2), &[one, half], &[y]).unwrap();
        if !probe_first {
            sys.add("probe", Gain::new(1.0), &[y], &[probe]).unwrap();
        }
        sys
    }

    #[test]
    fn block_downstream_of_a_loop_reads_its_current_sample_in_any_add_order() {
        for probe_first in [true, false] {
            let trace = halving_loop(probe_first).run(1e3, 4e-3).unwrap();
            let y = trace.signal("y").unwrap();
            assert_eq!(y, &[1.0, 1.5, 1.75, 1.875]);
            assert_eq!(
                trace.signal("probe").unwrap(),
                y,
                "probe first: {probe_first}"
            );
        }
    }

    /// `system` elaborated from netlist text at `fs`.
    fn netlist(src: &str, fs: f64) -> System {
        crate::netlist::load_system(src, fs).unwrap()
    }

    /// Runs a fresh system from `make` at frame lengths 1, 3,
    /// [`FRAME_LEN`] and longer than the run, and checks every net of
    /// the traces is bitwise equal.
    fn assert_frame_length_invariant(make: impl Fn() -> System, fs: f64, duration: f64) {
        let steps = (duration * fs).round() as usize;
        assert!(steps > 2 * FRAME_LEN, "the run spans several frames");
        let run = |frame_len| {
            let mut sys = make();
            let all: Vec<NetId> = (0..sys.net_names().len()).map(NetId).collect();
            sys.run_framed(fs, duration, &all, frame_len).unwrap()
        };
        let reference = run(1);
        assert_eq!(reference.len(), steps);
        for frame_len in [3, FRAME_LEN, steps + 7] {
            let trace = run(frame_len);
            for name in reference.names() {
                let (want, got) = (reference.signal(name).unwrap(), trace.signal(name).unwrap());
                assert!(
                    want.iter()
                        .map(|v| v.to_bits())
                        .eq(got.iter().map(|v| v.to_bits())),
                    "net {name} moved at frame length {frame_len}"
                );
            }
        }
    }

    #[test]
    fn frame_length_changes_no_bit() {
        // The Fig. 4 image-rejection tuner on the 500 MHz CATV plan.
        let tuner = "system irr {
            RF : sine(freq=500e6) -> (rf_in);
            LO1 : sine(freq=800e6) -> (lo1);
            MIX1 : mixer(k=1) (rf_in, lo1) -> (if1_raw);
            BPF1 : bandpass(f0=1.345e9, bw=400e6, sections=2) (if1_raw) -> (if1);
            LO2 : quadlo(freq=1.345e9, gain_err=0.03, phase_err_deg=2) -> (lo2_i, lo2_q);
            MIX2I : mixer(k=1) (if1, lo2_i) -> (arm_i);
            MIX2Q : mixer(k=1) (if1, lo2_q) -> (arm_q);
            PS90 : phase90err(f0=45e6, phase_err_deg=1.5) (arm_i) -> (arm_i_shift);
            SUM : adder(n=2) (arm_i_shift, arm_q) -> (if2);
        }";
        assert_frame_length_invariant(|| netlist(tuner, 8.205e9), 8.205e9, 0.2e-6);
        // A chain through a compiled module with state.
        let module = "module shaper(x, y) { input x; output y;
                analog { V(y) <- idt(V(x), 0.1) * 1e7 + delay(V(x), 3e-9) + ddt(V(x)) * 1e-10; } }
            system chain {
                S : sine(freq=37e6) -> (a);
                N : noise(rms=0.1, seed=3) -> (n);
                ADD : adder(n=2) (a, n) -> (x);
                SH : shaper() (x) -> (y);
                LP : lp1(fc=50e6) (y) -> (out);
            }";
        assert_frame_length_invariant(|| netlist(module, 1e9), 1e9, 2e-6);
        // An undriven net feeding a mixer.
        let undriven = "system floating {
            S : sine(freq=37e6) -> (a);
            M : mixer() (a, floating) -> (m);
            G : gain(k=2) (m) -> (out);
        }";
        assert_frame_length_invariant(|| netlist(undriven, 1e9), 1e9, 1e-6);
        // The phase-locked loop: a reference outside a four-block loop.
        let pll = "system pll {
            PLLREF : sine(freq=10e6) -> (pll_ref);
            PLLPD : mixer() (pll_ref, pll_vco) -> (pll_pd);
            PLLLF : lp1(fc=200e3) (pll_pd) -> (pll_filt);
            PLLGAIN : gain(k=4) (pll_filt) -> (pll_ctrl);
            PLLVCO : vco(f0=9.7e6, kvco=2e6) (pll_ctrl) -> (pll_vco);
        }";
        assert_frame_length_invariant(|| netlist(pll, 1e9), 1e9, 5e-6);
        // A self-loop accumulator between acyclic blocks.
        let accumulator = || {
            let mut sys = System::new();
            let (x, acc, out) = (sys.net("x"), sys.net("acc"), sys.net("out"));
            sys.add("out", Gain::new(0.5), &[acc], &[out]).unwrap();
            sys.add("acc", Adder::weighted(vec![1.0, 0.99]), &[x, acc], &[acc])
                .unwrap();
            sys.add("src", SineSource::new(1e6, 1.0), &[], &[x])
                .unwrap();
            sys
        };
        assert_frame_length_invariant(accumulator, 1e8, 1e-5);
        // A loop feeding an acyclic tail, the tail added first.
        assert_frame_length_invariant(|| halving_loop(true), 1e3, 1.0);
    }

    /// Passes its input through, except for a NaN at its `k`-th sample.
    struct NanAt {
        k: usize,
        count: usize,
    }

    impl Block for NanAt {
        fn num_inputs(&self) -> usize {
            1
        }
        fn num_outputs(&self) -> usize {
            1
        }
        fn tick(&mut self, _t: f64, _dt: f64, inputs: &[f64], outputs: &mut [f64]) {
            outputs[0] = if self.count == self.k {
                f64::NAN
            } else {
                inputs[0]
            };
            self.count += 1;
        }
        fn reset(&mut self) {
            self.count = 0;
        }
        fn kind(&self) -> &str {
            "nan-at"
        }
    }

    fn nan_at(k: usize) -> NanAt {
        NanAt { k, count: 0 }
    }

    /// A source feeding blocks that go non-finite at the given samples,
    /// in that order along a chain.
    fn chain_going_bad(bad_at: &[(&str, usize)]) -> System {
        let mut sys = System::new();
        let mut net = sys.net("src");
        sys.add("src", Constant::new(1.0), &[], &[net]).unwrap();
        for &(name, k) in bad_at {
            let out = sys.net(name);
            sys.add(name, nan_at(k), &[net], &[out]).unwrap();
            net = out;
        }
        let out = sys.net("out");
        sys.add("tail", Gain::new(2.0), &[net], &[out]).unwrap();
        sys
    }

    /// The error message of a run at every frame length: always the
    /// same one, the first block in schedule order at the earliest
    /// non-finite sample.
    fn error_at_every_frame_length(make: impl Fn() -> System, fs: f64, duration: f64) -> String {
        let messages: Vec<String> = [1, 3, FRAME_LEN, 10_000]
            .into_iter()
            .map(|frame_len| {
                let mut sys = make();
                let all: Vec<NetId> = (0..sys.net_names().len()).map(NetId).collect();
                match sys.run_framed(fs, duration, &all, frame_len) {
                    Err(AhdlError::Simulation(m)) => m,
                    other => panic!("frame length {frame_len}: {other:?}"),
                }
            })
            .collect();
        assert!(messages.iter().all(|m| *m == messages[0]), "{messages:?}");
        messages[0].clone()
    }

    #[test]
    fn non_finite_values_fail_at_the_earliest_sample_whatever_the_frame() {
        let fs = 1e9;
        // Mid-frame.
        let msg = error_at_every_frame_length(|| chain_going_bad(&[("bad", 100)]), fs, 1e-6);
        assert_eq!(msg, "block bad produced a non-finite value at t=1.000e-7");
        // On both sides of a frame boundary.
        let msg = error_at_every_frame_length(|| chain_going_bad(&[("bad", 256)]), fs, 1e-6);
        assert_eq!(msg, "block bad produced a non-finite value at t=2.560e-7");
        let msg = error_at_every_frame_length(|| chain_going_bad(&[("bad", 255)]), fs, 1e-6);
        assert_eq!(msg, "block bad produced a non-finite value at t=2.550e-7");
        // The later-scheduled block goes bad first in time.
        let msg = error_at_every_frame_length(
            || chain_going_bad(&[("first", 20), ("second", 5)]),
            fs,
            1e-6,
        );
        assert_eq!(
            msg,
            "block second produced a non-finite value at t=5.000e-9"
        );
        // Inside a feedback loop.
        let in_loop = || {
            let mut sys = System::new();
            let (one, half, pre, y) = (
                sys.net("one"),
                sys.net("half"),
                sys.net("pre"),
                sys.net("y"),
            );
            sys.add("src", Constant::new(1.0), &[], &[one]).unwrap();
            sys.add("fb", Gain::new(0.5), &[y], &[half]).unwrap();
            sys.add("sum", Adder::new(2), &[one, half], &[pre]).unwrap();
            sys.add("bad", nan_at(300), &[pre], &[y]).unwrap();
            sys
        };
        let msg = error_at_every_frame_length(in_loop, fs, 1e-6);
        assert_eq!(msg, "block bad produced a non-finite value at t=3.000e-7");
    }
}
