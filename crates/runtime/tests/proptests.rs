//! Property tests for the communicator: collective semantics must hold
//! for arbitrary rank counts and message sizes, and the traffic ledger
//! must account every byte exactly.

use proptest::prelude::*;
use xct_runtime::run_ranks;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn alltoallv_delivers_everything(
        size in 1usize..6,
        seed in any::<u32>(),
    ) {
        // Rank r sends to q a buffer of length (r*7 + q*3 + seed) % 5
        // filled with a value encoding (r, q).
        let (results, ledger) = run_ranks(size, |c| {
            let send: Vec<Vec<f32>> = (0..size)
                .map(|q| {
                    let len = ((c.rank() * 7 + q * 3 + seed as usize) % 5) as usize;
                    vec![(c.rank() * 100 + q) as f32; len]
                })
                .collect();
            c.alltoallv(send)
        });
        let mut expected_bytes = 0u64;
        for (rank, recv) in results.iter().enumerate() {
            for (src, buf) in recv.iter().enumerate() {
                let len = (src * 7 + rank * 3 + seed as usize) % 5;
                prop_assert_eq!(buf.len(), len);
                for &v in buf {
                    prop_assert_eq!(v, (src * 100 + rank) as f32);
                }
                if src != rank {
                    expected_bytes += len as u64 * 4;
                }
            }
        }
        prop_assert_eq!(ledger.total(), expected_bytes);
    }

    #[test]
    fn allreduce_is_order_independent_and_exact(
        size in 1usize..6,
        values in prop::collection::vec(-100i32..100, 1..8),
    ) {
        let vals = values.clone();
        let (results, _) = run_ranks(size, move |c| {
            // Integer-valued f32 so the sum is exact. Every rank gathers
            // every contribution and sums them in rank order.
            let v: Vec<f32> = vals.iter().map(|&x| (x + c.rank() as i32) as f32).collect();
            let mut sum = vec![0f32; v.len()];
            for buf in c.try_alltoallv(vec![v; size]).unwrap() {
                sum.iter_mut().zip(buf).for_each(|(s, x)| *s += x);
            }
            sum
        });
        let rank_sum: i64 = (0..size as i64).sum();
        for r in &results {
            for (i, &got) in r.iter().enumerate() {
                let want = size as i64 * values[i] as i64 + rank_sum;
                prop_assert_eq!(got as i64, want);
            }
        }
        // Every rank computed the identical result.
        for r in &results[1..] {
            prop_assert_eq!(r, &results[0]);
        }
    }

    #[test]
    fn alltoallv_carries_any_f32_bits(size in 1usize..5, base in any::<u32>()) {
        // Raw bit patterns (signalling and quiet NaNs, -0, subnormals,
        // then a spread of arbitrary words) must cross the byte framing
        // untouched, both between ranks and in the self-delivered block.
        let word = move |src: usize, dst: usize, i: usize| -> u32 {
            match i {
                0 => 0x7fa0_0001,
                1 => 0xffc0_0000 | src as u32,
                2 => 0x8000_0000,
                3 => 0x0000_0001 + dst as u32,
                _ => base
                    .wrapping_add((src * 64 + dst * 8 + i) as u32)
                    .wrapping_mul(0x9e37_79b9),
            }
        };
        let (results, _) = run_ranks(size, move |c| {
            let send: Vec<Vec<f32>> = (0..size)
                .map(|q| (0..8).map(|i| f32::from_bits(word(c.rank(), q, i))).collect())
                .collect();
            c.try_alltoallv(send).unwrap()
        });
        for (rank, recv) in results.iter().enumerate() {
            for (src, buf) in recv.iter().enumerate() {
                let got: Vec<u32> = buf.iter().map(|v| v.to_bits()).collect();
                let want: Vec<u32> = (0..8).map(|i| word(src, rank, i)).collect();
                prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn alltoall_counts_carry_any_u64(size in 1usize..5, seed in any::<u64>()) {
        // Each u64 rides as two f32 lanes; halves that read as NaN must
        // come back with their bits intact.
        let count = move |src: usize, dst: usize| -> u64 {
            seed.rotate_left((src * 5 + dst) as u32) ^ ((src as u64) << 40 | dst as u64)
        };
        let (results, _) = run_ranks(size, move |c| {
            let send: Vec<u64> = (0..size).map(|q| count(c.rank(), q)).collect();
            c.try_alltoall_counts(send).unwrap()
        });
        for (rank, recv) in results.iter().enumerate() {
            for (src, &v) in recv.iter().enumerate() {
                prop_assert_eq!(v, count(src, rank));
            }
        }
    }

    #[test]
    fn ledger_send_recv_totals_are_consistent(size in 2usize..6) {
        let (_, ledger) = run_ranks(size, |c| {
            let send: Vec<Vec<f32>> = (0..size).map(|q| vec![0.5; q + 1]).collect();
            c.alltoallv(send)
        });
        let sent: u64 = (0..size).map(|r| ledger.sent_by(r)).sum();
        let recvd: u64 = (0..size).map(|r| ledger.received_by(r)).sum();
        prop_assert_eq!(sent, recvd);
        prop_assert_eq!(sent, ledger.total());
    }
}
