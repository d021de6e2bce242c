//! Predicted Newton starts for the time-stepping engines.
//!
//! The transient engine and the PSS period integrator start each step's
//! Newton solve from the variable-step quadratic through the last three
//! accepted points (second order, like the trapezoidal rule),
//! extrapolated to the step's end time; the line while only two points
//! exist; and the last point itself after a restart. Each engine
//! restarts the history where the waveform may have a corner its
//! extrapolation would miss: at a source breakpoint and, for PSS, at the
//! start of every period.

/// The accepted points before the last one, from which each step's
/// Newton start is extrapolated. Both buffers are reused for the whole
/// run.
pub(crate) struct History {
    /// `x_{n-1}` and `x_{n-2}`.
    x: [Vec<f64>; 2],
    /// `t_{n-1}` and `t_{n-2}`.
    t: [f64; 2],
    /// How many of them follow the last restart (0, 1 or 2).
    len: usize,
}

impl History {
    pub(crate) fn new(n: usize) -> Self {
        History {
            x: [vec![0.0; n], vec![0.0; n]],
            t: [0.0; 2],
            len: 0,
        }
    }

    /// Forgets every earlier point: the next step starts from `x_n`.
    pub(crate) fn restart(&mut self) {
        self.len = 0;
    }

    /// Records the accepted `(t_n, x_n)` as the newest earlier point,
    /// before the step that replaces it is committed.
    pub(crate) fn push(&mut self, t: f64, x: &[f64]) {
        self.x.swap(0, 1);
        self.x[0].copy_from_slice(x);
        self.t = [t, self.t[0]];
        self.len = (self.len + 1).min(2);
    }

    /// Writes into `out` the Newton start of the step `t → t + h` from
    /// `(t, x)`: the polynomial through the earlier points and `(t, x)`,
    /// evaluated at `t + h` in Newton's divided-difference form so a
    /// constant unknown is predicted exactly, or `x` itself when there
    /// is no earlier point.
    pub(crate) fn predict(&self, t: f64, x: &[f64], h: f64, out: &mut [f64]) {
        if self.len == 0 {
            out.copy_from_slice(x);
            return;
        }
        let h1 = t - self.t[0];
        if self.len == 1 {
            for ((o, &xn), &x1) in out.iter_mut().zip(x).zip(&self.x[0]) {
                *o = xn + h * (xn - x1) / h1;
            }
        } else {
            let h2 = self.t[0] - self.t[1];
            let iter = out.iter_mut().zip(x).zip(&self.x[0]).zip(&self.x[1]);
            for (((o, &xn), &x1), &x2) in iter {
                let d1 = (xn - x1) / h1;
                let d2 = (d1 - (x1 - x2) / h2) / (h1 + h2);
                *o = xn + h * (d1 + (h + h1) * d2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicted_start_is_exact_on_quadratics_and_constants() {
        let q = |t: f64| 3.0 - 2.0 * t + 5.0 * t * t;
        let mut hist = History::new(2);
        let mut out = [0.0; 2];
        // No earlier point: the start is x_n.
        hist.predict(0.0, &[q(0.0), 7.0], 0.1, &mut out);
        assert_eq!(out, [q(0.0), 7.0]);
        hist.push(0.0, &[q(0.0), 7.0]);
        // Two points: the line through them.
        hist.predict(0.3, &[q(0.3), 7.0], 0.2, &mut out);
        let line = q(0.3) + 0.2 * (q(0.3) - q(0.0)) / 0.3;
        assert!((out[0] - line).abs() < 1e-12, "{} vs {line}", out[0]);
        assert_eq!(out[1], 7.0);
        hist.push(0.3, &[q(0.3), 7.0]);
        // Three unevenly spaced points: the quadratic, at any step, and
        // a constant unknown to the bit.
        for h in [0.05, 0.4, 1.0] {
            hist.predict(0.45, &[q(0.45), 7.0], h, &mut out);
            assert!((out[0] - q(0.45 + h)).abs() < 1e-12, "h = {h}");
            assert_eq!(out[1], 7.0);
        }
        hist.restart();
        hist.predict(0.45, &[q(0.45), 7.0], 0.1, &mut out);
        assert_eq!(out, [q(0.45), 7.0]);
    }
}
