//! Fixed-rate simulation traces.

use crate::error::{AhdlError, Result};
use std::collections::HashMap;

/// Uniformly sampled multi-signal record produced by
/// [`crate::system::System::run`].
#[derive(Clone, Debug)]
pub struct Trace {
    fs: f64,
    names: Vec<String>,
    index: HashMap<String, usize>,
    data: Vec<Vec<f64>>,
    len: usize,
}

impl Trace {
    /// Creates an empty trace with preallocated capacity.
    pub fn with_capacity(fs: f64, names: &[String], capacity: usize) -> Self {
        let mut index = HashMap::new();
        for (k, n) in names.iter().enumerate() {
            index.insert(n.clone(), k);
        }
        Trace {
            fs,
            names: names.to_vec(),
            index,
            data: names.iter().map(|_| Vec::with_capacity(capacity)).collect(),
            len: 0,
        }
    }

    /// Appends a frame of `n` samples of every signal, one slice per
    /// signal in signal order.
    ///
    /// # Panics
    ///
    /// Panics if the slice count differs from the signal count, or a
    /// slice is not `n` samples long.
    pub fn push_frame<'a>(&mut self, n: usize, columns: impl Iterator<Item = &'a [f64]>) {
        let mut count = 0;
        for (k, xs) in columns.enumerate() {
            assert_eq!(xs.len(), n, "frame length mismatch");
            self.data[k].extend_from_slice(xs);
            count += 1;
        }
        assert_eq!(count, self.data.len(), "row width mismatch");
        self.len += n;
    }

    /// Sample rate (Hz).
    pub fn fs(&self) -> f64 {
        self.fs
    }

    /// Number of samples per signal.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Signal names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// A signal by name.
    ///
    /// # Errors
    ///
    /// Returns [`AhdlError::Simulation`] when the signal was not
    /// recorded.
    pub fn signal(&self, name: &str) -> Result<&[f64]> {
        self.index
            .get(name)
            .map(|&k| self.data[k].as_slice())
            .ok_or_else(|| AhdlError::Simulation(format!("no recorded signal `{name}`")))
    }

    /// Time of sample `k`.
    pub fn time_at(&self, k: usize) -> f64 {
        k as f64 / self.fs
    }

    /// Serializes the trace as CSV with a leading time column.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time");
        for n in &self.names {
            out.push(',');
            out.push_str(n);
        }
        out.push('\n');
        for k in 0..self.len {
            out.push_str(&format!("{:e}", self.time_at(k)));
            for col in &self.data {
                out.push_str(&format!(",{:e}", col[k]));
            }
            out.push('\n');
        }
        out
    }

    /// The last recorded segment of a signal: `frac` in `(0, 1]` keeps the
    /// trailing fraction (used to skip settling transients).
    ///
    /// # Errors
    ///
    /// As [`Self::signal`].
    pub fn tail(&self, name: &str, frac: f64) -> Result<&[f64]> {
        let y = self.signal(name)?;
        let keep = ((y.len() as f64) * frac.clamp(1e-9, 1.0)).ceil() as usize;
        Ok(&y[y.len() - keep.min(y.len())..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Trace {
        let mut t = Trace::with_capacity(10.0, &["a".into(), "b".into()], 4);
        t.push_frame(1, [&[0.0][..], &[0.0][..]].into_iter());
        t.push_frame(
            3,
            [&[1.0, 2.0, 3.0][..], &[-1.0, -2.0, -3.0][..]].into_iter(),
        );
        t
    }

    #[test]
    fn signals_recorded_in_order() {
        let t = trace();
        assert_eq!(t.len(), 4);
        assert_eq!(t.signal("a").unwrap(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(t.signal("b").unwrap(), &[0.0, -1.0, -2.0, -3.0]);
        assert!(t.signal("c").is_err());
        assert_eq!(t.fs(), 10.0);
        assert!((t.time_at(3) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let t = trace();
        let csv = t.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("time,a,b"));
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.contains("1e-1,1e0,-1e0"));
    }

    #[test]
    fn tail_keeps_trailing_fraction() {
        let t = trace();
        assert_eq!(t.tail("a", 0.5).unwrap(), &[2.0, 3.0]);
        assert_eq!(t.tail("a", 1.0).unwrap().len(), 4);
        // Tiny fraction keeps at least one sample.
        assert_eq!(t.tail("a", 1e-12).unwrap(), &[3.0]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Trace::with_capacity(1.0, &["a".into(), "b".into()], 1);
        t.push_frame(1, [&[1.0][..]].into_iter());
    }
}
