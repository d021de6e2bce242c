//! The parser fuzz's seed decks and mutations, shared by the fuzz in
//! `tests/robustness.rs` and the `parse` line of `bit_fingerprint`.

use crate::TUNER_DECK;
use ahfic_spice::analysis::fault::splitmix64;

/// The `spice_playground` example's deck.
pub const PLAYGROUND_DECK: &str = "* differential pair with emitter follower output
.model rf_npn NPN (IS=2e-16 BF=120 VAF=45 IKF=5m RB=90 RE=3 RC=25
+ CJE=80f VJE=0.9 MJE=0.35 CJC=45f VJC=0.65 MJC=0.4 TF=16p XTF=4 VTF=3 ITF=12m TR=0.6n CJS=90f)
VCC vcc 0 5
VINP inp 0 DC 2.5 AC 0.5 SIN(2.5 0.05 100meg)
VINN inn 0 DC 2.5 AC -0.5
RLP vcc cp 1k
RLN vcc cn 1k
Q1 cp inp tail rf_npn
Q2 cn inn tail rf_npn
IT tail 0 2m
QF vcc cp out rf_npn
RF out 0 2k
.end";

/// The `quickstart` example's common-emitter deck.
pub const QUICKSTART_DECK: &str = "* common-emitter amplifier
.model n NPN (IS=2e-16 BF=120 CJE=80f CJC=45f TF=16p RB=100)
VCC vcc 0 5
VIN b 0 0.78 AC 1
RC vcc c 500
Q1 c b 0 n";

/// A pulse-driven subcircuit buffer (`E`) into a transconductor (`G`)
/// loading a coupled inductor pair (`K`) with a diode on its secondary.
pub const SUBCKT_DECK: &str = "* subcircuit, controlled sources, coupling, pulse
.model dm D (IS=1e-14 RS=2)
.subckt buf in out
E1 out 0 in 0 2
RO out 0 1k
.ends
VIN in 0 PULSE(0 1 1n 0.1n 0.1n 5n 10n)
X1 in a buf
G1 0 b a 0 1m
RB b 0 1k
L1 b 0 1u
L2 c 0 1u
K1 L1 L2 0.5
D1 c d dm
RD d 0 50
.end
";

/// The decks the parser fuzz mutates: both examples' decks, the served
/// tuner deck and [`SUBCKT_DECK`].
pub const FUZZ_SEEDS: [&str; 4] = [PLAYGROUND_DECK, QUICKSTART_DECK, TUNER_DECK, SUBCKT_DECK];

/// Applies mutation `kind` at byte offset `at` (reduced modulo the
/// deck's length): delete, insert or replace one byte, truncate,
/// duplicate the line at `at`, or delete the whitespace-separated token
/// at `at`.
pub fn mutate_deck(deck: &mut Vec<u8>, kind: u8, at: usize, byte: u8) {
    let len = deck.len();
    match kind {
        0 if len > 0 => {
            deck.remove(at % len);
        }
        1 => deck.insert(at % (len + 1), byte),
        2 if len > 0 => deck[at % len] = byte,
        3 => deck.truncate(at % (len + 1)),
        4 if len > 0 => {
            let at = at % len;
            let start = deck[..at]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |p| p + 1);
            let end = deck[at..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(len, |p| at + p + 1);
            let mut line = deck[start..end].to_vec();
            if line.last() != Some(&b'\n') {
                line.insert(0, b'\n');
            }
            deck.splice(end..end, line);
        }
        5 if len > 0 => {
            let at = at % len;
            let is_space = |b: &u8| b.is_ascii_whitespace();
            let start = deck[..at].iter().rposition(is_space).map_or(0, |p| p + 1);
            let end = deck[at..].iter().position(is_space).map_or(len, |p| at + p);
            deck.drain(start..end);
        }
        _ => {}
    }
}

/// A fixed corpus of `cases` mutated seed decks drawn from `seed`: each
/// case takes one of [`FUZZ_SEEDS`] and applies one to three
/// [`mutate_deck`] mutations, any byte value allowed (invalid UTF-8
/// becomes U+FFFD).
pub fn mutated_corpus(seed: u64, cases: usize) -> Vec<String> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(1);
        splitmix64(state)
    };
    (0..cases)
        .map(|_| {
            let seed_deck = FUZZ_SEEDS[(next() % FUZZ_SEEDS.len() as u64) as usize];
            let mut deck = seed_deck.as_bytes().to_vec();
            for _ in 0..1 + next() % 3 {
                let (kind, at, byte) = (next() % 6, next() % 4096, next() % 256);
                mutate_deck(&mut deck, kind as u8, at as usize, byte as u8);
            }
            String::from_utf8_lossy(&deck).into_owned()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_seeded_and_mutated() {
        let a = mutated_corpus(1, 64);
        assert_eq!(a, mutated_corpus(1, 64));
        assert_ne!(a, mutated_corpus(2, 64));
        assert!(a.iter().any(|t| !FUZZ_SEEDS.contains(&t.as_str())));
    }
}
