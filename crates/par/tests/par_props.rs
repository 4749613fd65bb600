//! Property tests: every `par_*` entry point must be bit-for-bit identical to
//! its sequential equivalent, for arbitrary inputs and thread counts.

use joinmi_par::{par_map, par_map_index, par_map_with, with_threads};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn par_map_matches_sequential(
        items in proptest::collection::vec(0u64..1_000_000, 0..400),
        threads in 1usize..9,
    ) {
        let f = |&x: &u64| x.wrapping_mul(0x9E37_79B9).rotate_left(7);
        let want: Vec<u64> = items.iter().map(f).collect();
        let got = with_threads(threads, || par_map(&items, f));
        prop_assert_eq!(got, want);
    }

    #[test]
    fn par_map_index_matches_sequential(n in 0usize..500, threads in 1usize..9) {
        let f = |i: usize| (i as u64).wrapping_mul(31).wrapping_add(17);
        let want: Vec<u64> = (0..n).map(f).collect();
        let got = with_threads(threads, || par_map_index(n, f));
        prop_assert_eq!(got, want);
    }

    #[test]
    fn par_map_with_scratch_matches_sequential(
        items in proptest::collection::vec(0u32..10_000, 0..300),
        threads in 1usize..9,
    ) {
        // The scratch is a reusable buffer; its contents must never leak
        // between items in a way that changes results.
        let want: Vec<u32> = items.iter().map(|&x| x / 2 + x % 7).collect();
        let got = with_threads(threads, || {
            par_map_with(
                &items,
                Vec::<u32>::new,
                |buf, &x| {
                    buf.clear();
                    buf.push(x / 2);
                    buf.push(x % 7);
                    buf.iter().sum::<u32>()
                },
            )
        });
        prop_assert_eq!(got, want);
    }
}
