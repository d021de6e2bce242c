//! The served tuner deck: a closed-loop client sending 32-job batches
//! of the transistor-level image-rejection front end through one
//! `JobQueue`.

use crate::layers::Layers;
use crate::{Unit, Workload};
use ahfic_serve::{JobOutput, JobQueue, JobRequest, JobSpec, QueueConfig};
use ahfic_spice::analysis::fault::splitmix64;
use ahfic_spice::analysis::{Options, Session, TranParams};
use ahfic_spice::circuit::Prepared;
use ahfic_spice::parse::parse_netlist;
use ahfic_trace::{InMemorySink, TraceHandle};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Deck variants of `tuner_hot`: all fit the queue's 64-deck cache.
pub const HOT_VARIANTS: usize = 4;
/// Deck variants of `tuner_churn`: four times the cache capacity, so
/// about one job in four finds its deck compiled.
pub const CHURN_VARIANTS: usize = 256;
/// Queue workers. With one, `JobQueue::run` serves the batch on the
/// client's thread through the same per-job path (parse, cache,
/// supervision, session). Two workers on a 2-vCPU virtual machine spend
/// each batch on cross-CPU wake-ups whose latency follows the host's
/// load: the run-to-run spread of the median batch was 8–27% with two
/// and 1.4–3.5% with one.
const WORKERS: usize = 1;
/// Every 64th job is re-solved from scratch outside the timed window.
const CHECK_EVERY: u64 = 64;
/// Agreement between a served job and a fresh solve of the same text:
/// the default Newton `vntol`. A warm-started solve stops at a different
/// iterate than a cold one, a few nV to ~0.1 µV apart on this deck.
const CHECK_TOL: f64 = 1e-6;

/// Analysis a tuner job asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Operating point.
    Op,
    /// 60-point AC sweep.
    Ac,
    /// 50 ns transient at 0.2 ns.
    Tran,
}

/// Kinds in every batch: 75% `Op`, 18.75% `Ac`, 6.25% `Tran`. A fixed
/// multiset (in seeded order) gives every batch the same work, so the
/// fastest batch of a run stands for all of them.
const MIX: [(Kind, usize); 3] = [(Kind::Op, 24), (Kind::Ac, 6), (Kind::Tran, 2)];

/// The seeded job sequence: batch `b`'s job order and deck variants
/// depend only on `(seed, b)`.
#[derive(Clone, Debug)]
pub struct JobStream {
    seed: u64,
    next: u64,
    variants: usize,
}

impl JobStream {
    /// A stream over `variants` decks.
    pub fn new(seed: u64, variants: usize) -> Self {
        JobStream {
            seed,
            next: 0,
            variants,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.next += 1;
        splitmix64(self.seed ^ splitmix64(self.next))
    }

    /// The next batch: the [`MIX`] kinds shuffled, each on a uniformly
    /// drawn deck variant.
    pub fn batch(&mut self) -> Vec<(Kind, usize)> {
        let mut kinds: Vec<Kind> = MIX
            .iter()
            .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
            .collect();
        for i in (1..kinds.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            kinds.swap(i, j);
        }
        kinds
            .into_iter()
            .map(|k| (k, (self.next_u64() % self.variants as u64) as usize))
            .collect()
    }
}

/// Netlist text of the transistor-level image-rejection front end (19
/// unknowns). Variants differ in the summing load, so each is its own
/// compiled deck.
pub fn deck_text(variant: usize) -> String {
    let mut text = format!(
        "* image-rejection front end, variant {variant}\n\
         .model rfnpn NPN (BF=90 RB=120 RE=1.5 RC=25 CJE=60f CJC=40f TF=12p)\n\
         VCC vcc 0 5\n\
         VRF vin 0 SIN(0 10m 100meg) AC 1\n"
    );
    for arm in ["i", "q"] {
        text.push_str(&format!(
            "RB1{arm} vcc b{arm} 47k\nRB2{arm} b{arm} 0 10k\nCIN{arm} vin b{arm} 10p\n\
             RC{arm} vcc c{arm} 1k\nRE{arm} e{arm} 0 220\nCE{arm} e{arm} 0 20p\n\
             Q{arm} c{arm} b{arm} e{arm} rfnpn\n"
        ));
    }
    text.push_str(&format!(
        "CPI ci oi 2p\nRPI oi 0 800\nRPQ cq oq 800\nCPQ oq 0 2p\n\
         RSI oi sum 2k\nRSQ oq sum 2k\nRL sum 0 {}\n.end\n",
        1000 + 5 * variant
    ));
    text
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// `tuner_hot` and `tuner_churn`: one unit is one 32-job batch through
/// `JobQueue::run`.
pub struct Tuner {
    name: &'static str,
    queue: JobQueue,
    decks: Vec<String>,
    stream: JobStream,
    freqs: Vec<f64>,
    tran: TranParams,
    jobs_done: u64,
}

impl Tuner {
    /// Builds the deck texts and the queue, fills the cache and runs one
    /// batch, untimed and checked.
    pub fn setup(name: &'static str, seed: u64, variants: usize) -> Result<Self, String> {
        let config = QueueConfig::new().threads(WORKERS);
        // A warm-up that does not depend on the seed, so neither does
        // set-up cost: an operating point on as many decks as the cache
        // holds, then one batch of a fixed stream.
        let fill: Vec<(Kind, usize)> = (0..variants.min(config.cache_capacity))
            .map(|v| (Kind::Op, v))
            .collect();
        let warm = JobStream::new(0, variants).batch();
        let mut t = Tuner {
            name,
            queue: JobQueue::new(config),
            decks: (0..variants).map(deck_text).collect(),
            stream: JobStream::new(seed, variants),
            freqs: (0..60)
                .map(|k| 10e6 * 100f64.powf(k as f64 / 59.0))
                .collect(),
            tran: TranParams::new(50e-9, 0.2e-9),
            jobs_done: 0,
        };
        if t.run_batch(&fill, None).failed + t.run_batch(&warm, None).failed != 0 {
            return Err("tuner warm-up batch failed its checks".into());
        }
        Ok(t)
    }

    fn spec(&self, kind: Kind) -> JobSpec {
        match kind {
            Kind::Op => JobSpec::Op,
            Kind::Ac => JobSpec::Ac {
                freqs: self.freqs.clone(),
            },
            Kind::Tran => JobSpec::Tran(self.tran),
        }
    }

    /// Re-solves the job from its text on a fresh session and compares.
    fn check_against_fresh(
        &self,
        kind: Kind,
        variant: usize,
        out: &JobOutput,
    ) -> Result<(), String> {
        let ckt = parse_netlist(&self.decks[variant]).map_err(|e| e.to_string())?;
        let sess = Session::compile(&ckt)
            .map_err(|e| e.to_string())?
            .with_options(Options::new().threads(1));
        let diff = match (kind, out) {
            (Kind::Op, JobOutput::Op(r)) => {
                let fresh = sess.op().map_err(|e| e.to_string())?;
                max_abs_diff(r.x(), fresh.x())
            }
            (Kind::Ac, JobOutput::Ac(w)) => {
                let op = sess.op().map_err(|e| e.to_string())?;
                let fresh = sess.ac(op.x(), &self.freqs).map_err(|e| e.to_string())?;
                let (a, b) = (
                    w.signal("v(sum)").map_err(|e| e.to_string())?,
                    fresh.signal("v(sum)").map_err(|e| e.to_string())?,
                );
                if a.len() == b.len() {
                    a.iter()
                        .zip(b)
                        .map(|(x, y)| (*x - *y).abs())
                        .fold(0.0, f64::max)
                } else {
                    f64::INFINITY
                }
            }
            (Kind::Tran, JobOutput::Tran(t)) => {
                let fresh = sess.tran(&self.tran).map_err(|e| e.to_string())?;
                let sig = |w: &ahfic_spice::wave::Waveform| w.signal("v(sum)").map(<[f64]>::to_vec);
                max_abs_diff(
                    &sig(t.wave()).map_err(|e| e.to_string())?,
                    &sig(fresh.wave()).map_err(|e| e.to_string())?,
                )
            }
            _ => return Err(format!("{kind:?} job returned another kind of output")),
        };
        if diff <= CHECK_TOL {
            Ok(())
        } else {
            Err(format!(
                "{kind:?} job differs from a fresh solve by {diff:e}"
            ))
        }
    }

    /// Times, outside the queue, the parse of every job's text and the
    /// compile of every deck the cache missed: the queue runs both
    /// inside each job, where no span covers them.
    fn replay_parse_and_compile(&self, draws: &[(Kind, usize)], misses: &[usize], l: &mut Layers) {
        let t0 = Instant::now();
        for &(_, v) in draws {
            black_box(parse_netlist(black_box(&self.decks[v])).ok());
        }
        l.add("parse.s", t0.elapsed().as_secs_f64());
        l.add("parse.calls", draws.len() as f64);
        for &v in misses {
            let Ok(ckt) = parse_netlist(&self.decks[v]) else {
                continue;
            };
            let t0 = Instant::now();
            black_box(Prepared::compile(black_box(&ckt)).ok());
            l.add("compile.s", t0.elapsed().as_secs_f64());
            l.add("compile.calls", 1.0);
        }
    }

    /// Runs `draws` as one `JobQueue::run` batch and checks the reports.
    fn run_batch(&mut self, draws: &[(Kind, usize)], layers: Option<&mut Layers>) -> Unit {
        // One sink per job: each holds one worker thread's nested spans.
        let sinks: Vec<Arc<InMemorySink>> = match layers {
            Some(_) => draws
                .iter()
                .map(|_| Arc::new(InMemorySink::new()))
                .collect(),
            None => Vec::new(),
        };
        let jobs: Vec<JobRequest> = draws
            .iter()
            .enumerate()
            .map(|(i, &(kind, v))| {
                let mut opts = Options::new().threads(1);
                if let Some(s) = sinks.get(i) {
                    opts = opts.trace_handle(TraceHandle::new(s));
                }
                JobRequest::new(self.decks[v].as_str(), self.spec(kind)).options(opts)
            })
            .collect();
        let (stats0, cache0) = (self.queue.stats(), self.queue.cache_stats());
        let t0 = Instant::now();
        let reports = self.queue.run(jobs);
        let seconds = t0.elapsed().as_secs_f64();

        let mut failed = 0u64;
        let mut misses = Vec::new();
        for (r, &(kind, v)) in reports.iter().zip(draws) {
            let index = self.jobs_done;
            self.jobs_done += 1;
            if !r.cache_hit() {
                misses.push(v);
            }
            let verdict = match r.outcome() {
                Err(e) => Err(e.to_string()),
                Ok(out) if index.is_multiple_of(CHECK_EVERY) => {
                    self.check_against_fresh(kind, v, out)
                }
                Ok(JobOutput::Tran(t)) if !t.is_complete() => Err(format!("{:?}", t.status())),
                Ok(_) => Ok(()),
            };
            if let Err(msg) = verdict {
                eprintln!("{}: job {index} ({kind:?}, variant {v}): {msg}", self.name);
                failed += 1;
            }
        }
        if reports.len() != draws.len() {
            failed += draws.len().abs_diff(reports.len()) as u64;
        }

        if let Some(l) = layers {
            let busy: f64 = sinks.iter().map(|s| l.absorb(&s.take())).sum();
            l.add("serve.busy_s", busy);
            l.add("serve.capacity_s", WORKERS as f64 * seconds);
            let (stats, cache) = (self.queue.stats(), self.queue.cache_stats());
            l.add("serve.jobs", (stats.submitted - stats0.submitted) as f64);
            l.add("serve.failed", (stats.failed - stats0.failed) as f64);
            l.add("serve.retries", (stats.retries - stats0.retries) as f64);
            l.add("cache.hits", (cache.hits() - cache0.hits()) as f64);
            l.add("cache.misses", (cache.misses() - cache0.misses()) as f64);
            l.add(
                "cache.evictions",
                (cache.evictions() - cache0.evictions()) as f64,
            );
            self.replay_parse_and_compile(draws, &misses, l);
        }
        Unit::new(vec![seconds], draws.len() as u64, failed)
    }
}

impl Workload for Tuner {
    fn unit(&mut self, layers: Option<&mut Layers>) -> Unit {
        let draws = self.stream.batch();
        self.run_batch(&draws, layers)
    }

    fn quick_units(&self) -> usize {
        20
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn draws(seed: u64, variants: usize, batches: usize) -> Vec<(Kind, usize)> {
        let mut s = JobStream::new(seed, variants);
        (0..batches).flat_map(|_| s.batch()).collect()
    }

    #[test]
    fn same_seed_same_jobs_other_seed_other_jobs() {
        assert_eq!(draws(7, CHURN_VARIANTS, 20), draws(7, CHURN_VARIANTS, 20));
        assert_ne!(draws(7, CHURN_VARIANTS, 20), draws(8, CHURN_VARIANTS, 20));
        // The kind order alone also changes with the seed.
        let kinds = |seed| {
            draws(seed, HOT_VARIANTS, 20)
                .into_iter()
                .map(|d| d.0)
                .collect::<Vec<_>>()
        };
        assert_ne!(kinds(7), kinds(8));
    }

    #[test]
    fn every_batch_holds_the_job_mix() {
        let mut s = JobStream::new(1996, HOT_VARIANTS);
        for _ in 0..100 {
            let b = s.batch();
            assert_eq!(b.len(), 32);
            for (kind, n) in MIX {
                assert_eq!(b.iter().filter(|d| d.0 == kind).count(), n);
            }
            assert!(b.iter().all(|d| d.1 < HOT_VARIANTS));
        }
    }

    /// Hit ratio of an LRU cache of `capacity` decks over `keys`, after
    /// `warm` untimed draws.
    fn lru_hit_ratio(keys: &[usize], capacity: usize, warm: usize) -> f64 {
        let mut lru: VecDeque<usize> = VecDeque::new();
        let mut hits = 0;
        for (i, &k) in keys.iter().enumerate() {
            let hit = match lru.iter().position(|&x| x == k) {
                Some(p) => {
                    lru.remove(p);
                    true
                }
                None => {
                    if lru.len() == capacity {
                        lru.pop_back();
                    }
                    false
                }
            };
            lru.push_front(k);
            if hit && i >= warm {
                hits += 1;
            }
        }
        hits as f64 / (keys.len() - warm) as f64
    }

    #[test]
    fn churn_draw_hits_a_64_deck_lru_a_quarter_of_the_time() {
        let capacity = QueueConfig::new().cache_capacity;
        assert_eq!(capacity, 64);
        for seed in [1, 1996] {
            let keys: Vec<usize> = draws(seed, CHURN_VARIANTS, 1_250)
                .iter()
                .map(|d| d.1)
                .collect();
            let r = lru_hit_ratio(&keys, capacity, 128);
            assert!((r - 0.25).abs() <= 0.02, "seed {seed}: hit ratio {r}");
        }
        let keys: Vec<usize> = draws(1, HOT_VARIANTS, 125).iter().map(|d| d.1).collect();
        assert_eq!(lru_hit_ratio(&keys, capacity, 128), 1.0);
    }

    #[test]
    fn every_variant_parses_to_the_nineteen_unknown_deck() {
        for v in [0, 3, 255] {
            let ckt = parse_netlist(&deck_text(v)).expect("deck parses");
            let prep = Prepared::compile(&ckt).expect("deck compiles");
            assert_eq!(prep.num_unknowns, 19);
        }
    }
}
