//! Property tests for the communicator and the snapshot container:
//! collective semantics must hold for arbitrary rank counts and message
//! sizes, the traffic ledger must account every byte exactly, and a
//! corrupted snapshot decodes to a typed error (or a snapshot), never a
//! panic.

use proptest::prelude::*;
use xct_runtime::{fnv1a64, run_ranks, CheckpointError, Snapshot};

/// The sections, kinds and lengths `memxct` writes for a width-2 CG
/// solve of a 6 × 4 plan paused before iteration 3, slice 1 retired
/// after two iterations.
fn cg_width2() -> Vec<u8> {
    let mut s = Snapshot::new(0x5eed_0fc0_ffee, 3);
    s.push_u64s("solve/batch", &[2]);
    s.push_f32s(
        "solve/x",
        &[0.5, -1.25, 2.0, f32::NAN, 0.0, -0.0, 1e-40, 3.5],
    );
    s.push_f32s("solve/resid", &[0.25; 12]);
    s.push_f32s("solve/dir", &[-0.75; 8]);
    s.push_f64s("solve/prev_res", &[0.5, 0.25]);
    s.push_u64s("solve/active", &[1, 0]);
    s.push_f64s("solve/rule_scalars", &[0.125, 0.0625]);
    s.push_u64s("records/counts", &[3, 2]);
    s.push_f64s("records/residual", &[9.0, 4.0, 1.0, 8.0, 2.0]);
    s.push_f64s("records/solution", &[1.0, 2.0, 3.0, 1.5, 2.5]);
    s.push_f64s("records/seconds", &[0.01; 5]);
    s.encode()
}

/// `bytes` with a fresh trailing checksum over the edited body.
fn rechecksummed(mut bytes: Vec<u8>) -> Vec<u8> {
    let body = bytes.len() - 8;
    let checksum = fnv1a64(&bytes[..body]);
    bytes[body..].copy_from_slice(&checksum.to_le_bytes());
    bytes
}

/// The offsets of each section's kind byte and length field in a clean
/// snapshot.
fn section_fields(bytes: &[u8]) -> Vec<(usize, usize)> {
    let word = |at: usize, n: usize| {
        bytes[at..at + n]
            .iter()
            .rev()
            .fold(0usize, |v, &b| v << 8 | b as usize)
    };
    let mut pos = 28;
    (0..word(24, 4))
        .map(|_| {
            let kind_at = pos + 4 + word(pos, 4);
            let width = if bytes[kind_at] == 0 { 4 } else { 8 };
            pos = kind_at + 9 + word(kind_at + 1, 8) * width;
            (kind_at, kind_at + 1)
        })
        .collect()
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn corrupted_snapshots_decode_typed(
        edit in 0u8..6,
        at in any::<u64>(),
        value in any::<u64>(),
    ) {
        let clean = cg_width2();
        let fields = section_fields(&clean);
        prop_assert_eq!(fields.len(), 11);
        let (kind_at, len_at) = fields[at as usize % fields.len()];
        let mut bytes = clean.clone();
        match edit {
            // Cut anywhere: the checksum or a length runs out.
            0 => bytes.truncate(at as usize % clean.len()),
            // Flip bits of any byte before the checksum, then re-checksum.
            1 => bytes[at as usize % (clean.len() - 8)] ^= (value as u8) | 1,
            // A section length of any magnitude.
            2 => {
                let len = value >> (at % 64);
                bytes[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
            }
            3 => bytes[kind_at] = value as u8,
            4 => bytes[7] = value as u8,
            // A section count of any size: it must not size an allocation.
            _ => bytes[24..28].copy_from_slice(&(value as u32).to_le_bytes()),
        }
        if edit != 0 {
            bytes = rechecksummed(bytes);
        }
        let decoded = Snapshot::decode(&bytes);
        if let Ok(snap) = &decoded {
            // Whatever decodes, encodes and decodes again.
            prop_assert!(Snapshot::decode(&snap.encode()).is_ok());
        }
        match edit {
            0 => prop_assert!(decoded.is_err()),
            2 => {
                let len = value >> (at % 64);
                let width = if clean[kind_at] == 0 { 4 } else { 8 };
                if u128::from(len) * width > bytes.len() as u128 {
                    let truncated = matches!(decoded, Err(CheckpointError::Truncated { .. }));
                    prop_assert!(truncated, "length {}: {:?}", len, decoded);
                }
            }
            3 if ![0, 3, 4].contains(&(value as u8)) => {
                let kind = value as u8;
                prop_assert_eq!(decoded, Err(CheckpointError::UnknownKind { kind }));
            }
            4 if value as u8 != 2 => {
                let found = value as u8;
                prop_assert_eq!(decoded, Err(CheckpointError::UnsupportedVersion { found }));
            }
            5 if value as u32 > 11 => prop_assert!(decoded.is_err()),
            _ => {}
        }
    }
}
