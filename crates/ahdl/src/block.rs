//! The behavioral block abstraction: everything that can sit in a
//! block-diagram [`crate::system::System`] — built-in Rust blocks and
//! compiled AHDL modules alike.

/// A discrete-time behavioral block with fixed input/output arity.
///
/// `tick` reads the input samples and writes the output samples for
/// time `t` (step size `dt`). Outside feedback loops the system calls
/// [`Self::tick_frame`] instead, once per frame of consecutive samples.
pub trait Block {
    /// Number of input ports.
    fn num_inputs(&self) -> usize;

    /// Number of output ports.
    fn num_outputs(&self) -> usize;

    /// Computes outputs at time `t`.
    ///
    /// # Panics
    ///
    /// Implementations may assume `inputs.len() == num_inputs()` and
    /// `outputs.len() == num_outputs()`; the system guarantees it.
    fn tick(&mut self, t: f64, dt: f64, inputs: &[f64], outputs: &mut [f64]);

    /// Computes `n` consecutive samples, the `j`-th at
    /// `t = (k0 + j) as f64 * dt`, exactly as `n` calls of
    /// [`Self::tick`] would.
    ///
    /// Slices are port-major: port `p`'s samples are at
    /// `[p * n..(p + 1) * n]` of `inputs` and `outputs`. The default
    /// loops over `tick`; a block overrides it with a tight loop over
    /// the per-sample arithmetic `tick` also uses, so results stay bit
    /// for bit the same.
    ///
    /// # Panics
    ///
    /// Implementations may assume `inputs.len() == num_inputs() * n` and
    /// `outputs.len() == num_outputs() * n`; the system guarantees it.
    fn tick_frame(&mut self, k0: usize, n: usize, dt: f64, inputs: &[f64], outputs: &mut [f64]) {
        let mut x = vec![0.0; self.num_inputs()];
        let mut y = vec![0.0; self.num_outputs()];
        for j in 0..n {
            for (p, slot) in x.iter_mut().enumerate() {
                *slot = inputs[p * n + j];
            }
            self.tick((k0 + j) as f64 * dt, dt, &x, &mut y);
            for (p, &v) in y.iter().enumerate() {
                outputs[p * n + j] = v;
            }
        }
    }

    /// Resets internal state (integrators, filters, delay lines) to the
    /// initial condition.
    fn reset(&mut self);

    /// Short kind label used in diagnostics (`"gain"`, `"bpf"`, …).
    fn kind(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal block used to exercise the trait object path.
    struct Doubler;

    impl Block for Doubler {
        fn num_inputs(&self) -> usize {
            1
        }
        fn num_outputs(&self) -> usize {
            1
        }
        fn tick(&mut self, _t: f64, _dt: f64, inputs: &[f64], outputs: &mut [f64]) {
            outputs[0] = 2.0 * inputs[0];
        }
        fn reset(&mut self) {}
        fn kind(&self) -> &str {
            "doubler"
        }
    }

    #[test]
    fn trait_object_dispatch() {
        let mut b: Box<dyn Block> = Box::new(Doubler);
        let mut out = [0.0];
        b.tick(0.0, 1e-9, &[21.0], &mut out);
        assert_eq!(out[0], 42.0);
        assert_eq!(b.kind(), "doubler");
        assert_eq!(b.num_inputs(), 1);
        assert_eq!(b.num_outputs(), 1);
    }
}
