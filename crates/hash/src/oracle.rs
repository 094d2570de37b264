//! The per-shingle MinHash signature loop the base-hash collection and
//! vectorized fold replaced, kept as a test oracle. The properties below
//! assert equal signatures on random token lists and an equal fold from
//! every compiled copy the CPU can run (AVX-512, AVX2, scalar) and a naive
//! loop.

use proptest::prelude::*;

use crate::fxhash::hash64_seeded;
use crate::minhash::{min_remix, remix, FoldIsa};
use crate::MinHasher;

/// `MinHasher::signature` as it was: each shingle's base hash folded into
/// the signature one seed at a time.
fn reference_signature<S: AsRef<str>>(mh: &MinHasher, tokens: &[S]) -> Vec<u64> {
    let mut sig = vec![u64::MAX; mh.seeds.len()];
    if tokens.is_empty() {
        return sig;
    }
    let n = mh.shingle_size.min(tokens.len());
    let mut shingle = String::new();
    for window in tokens.windows(n) {
        shingle.clear();
        for (i, t) in window.iter().enumerate() {
            if i > 0 {
                shingle.push('\u{1}'); // unambiguous token separator
            }
            shingle.push_str(t.as_ref());
        }
        let base = hash64_seeded(shingle.as_bytes(), 0);
        for (slot, &seed) in sig.iter_mut().zip(&mh.seeds) {
            let h = remix(base, seed);
            if h < *slot {
                *slot = h;
            }
        }
    }
    sig
}

/// splitmix64: the per-case generator, seeded from the property runner.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const TOKENS: &[&str] = &[
    "the", "data", "juicer", "a", "", "数据", "😀", "x\u{1}y", "café", "1.2.3.4", "end",
];

/// Signature widths around the 8-lane block: below, at, between and above.
const WIDTHS: &[usize] = &[1, 7, 8, 9, 16, 63, 128, 130];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn signature_matches_the_per_shingle_loop(seed in any::<u64>()) {
        let g = &mut Gen(seed);
        let tokens: Vec<&str> = (0..g.below(60)).map(|_| TOKENS[g.below(TOKENS.len())]).collect();
        let mh = MinHasher::new(WIDTHS[g.below(WIDTHS.len())], 1 + g.below(6));
        prop_assert_eq!(mh.signature(&tokens), reference_signature(&mh, &tokens));
    }

    #[test]
    fn every_fold_copy_matches_the_naive_loop(seed in any::<u64>()) {
        let g = &mut Gen(seed);
        let seeds: Vec<u64> = (0..WIDTHS[g.below(WIDTHS.len())]).map(|_| g.next()).collect();
        let bases: Vec<u64> = (0..g.below(300)).map(|_| g.next()).collect();
        // Start from a partly filled signature: the fold must keep a
        // smaller value that is already there.
        let start: Vec<u64> = seeds
            .iter()
            .map(|_| if g.below(4) == 0 { g.next() } else { u64::MAX })
            .collect();
        let naive: Vec<u64> = start
            .iter()
            .zip(&seeds)
            .map(|(&s, &seed)| bases.iter().map(|&b| remix(b, seed)).fold(s, u64::min))
            .collect();
        for isa in [FoldIsa::Avx512, FoldIsa::Avx2, FoldIsa::Scalar] {
            let mut sig = start.clone();
            min_remix(isa, &seeds, &bases, &mut sig);
            prop_assert_eq!(&sig, &naive, "{:?}", isa);
        }
    }
}
