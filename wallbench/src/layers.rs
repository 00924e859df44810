//! Layer timings: each layer's public functions called on the workload's
//! own checkpoint state, single-threaded, with warm buffers.

use std::path::Path;
use std::time::{Duration, Instant};

use acr::protocol::{ChunkTable, Detection, DetectionMethod};
use acr::pup::{chunk_digests, compare, pack_digested, Pup, DEFAULT_CHUNK_SIZE};
use acr::runtime::wire::{decode_compare_body, encode_batch, encode_compare_body, FrameDecoder};
use acr::runtime::WireCodec;
use acr::store::{EventLog, SlotData, SlotEntry, SlotStore};
use bytes::Bytes;

use crate::stats::median;

/// Per-call wall seconds of the layer functions, medians over repeats.
#[derive(Debug, Default)]
pub struct LayerTimes {
    pub state_bytes: usize,
    pub pack_s: f64,
    /// `pack_digested` into fresh, never-touched buffers (every call pays
    /// its page faults, as the runtime's per-round allocation does).
    pub pack_cold_s: f64,
    pub compare_s: f64,
    pub chunk_digest_s: f64,
    /// Compare-record body bytes the wire layer encodes and decodes.
    pub body_bytes: usize,
    pub encode_s: f64,
    pub decode_s: f64,
    pub append_s: f64,
    pub slot_write_s: f64,
}

/// Time `f` over at least `min_reps` calls and `budget` wall time, after
/// two warm-up calls; the median call.
fn time_calls(budget: Duration, min_reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    f();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < min_reps || start.elapsed() < budget {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

const BUDGET: Duration = Duration::from_millis(300);
const MIN_REPS: usize = 7;

/// Time every layer on `state`: pup, the wire codec for the record the
/// workload's detection method ships, and the store's fsynced writes for
/// the job's `ranks` (into a scratch directory `dir`).
pub fn measure(
    state: &mut dyn Pup,
    detection: DetectionMethod,
    ranks: usize,
    dir: &Path,
) -> LayerTimes {
    let chunk = DEFAULT_CHUNK_SIZE;
    let (payload, digest) = pack_digested(state, chunk).expect("pack");
    let mut t = LayerTimes {
        state_bytes: payload.len(),
        ..LayerTimes::default()
    };
    t.pack_s = time_calls(BUDGET, MIN_REPS, || {
        std::hint::black_box(pack_digested(state, chunk).expect("pack"));
    });
    let mut kept = Vec::new();
    t.pack_cold_s = time_calls(Duration::ZERO, MIN_REPS, || {
        kept.push(pack_digested(state, chunk).expect("pack"));
    });
    drop(kept);
    t.compare_s = time_calls(BUDGET, MIN_REPS, || {
        let report = compare(state, &payload).expect("compare");
        assert!(report.is_clean(), "state compares clean against itself");
    });
    t.chunk_digest_s = time_calls(BUDGET, MIN_REPS, || {
        std::hint::black_box(chunk_digests(&payload, chunk));
    });

    let record = match detection {
        DetectionMethod::FullCompare => Detection::Payload(Bytes::from(payload.clone())),
        DetectionMethod::Checksum => Detection::Digest(digest.digest),
        DetectionMethod::ChunkedChecksum => Detection::DigestTable {
            digest: digest.digest,
            table: ChunkTable {
                chunk_size: chunk as u32,
                digests: digest.chunk_digests.clone(),
            },
        },
    };
    let codec = WireCodec::default();
    let body = encode_compare_body(7, &record);
    t.body_bytes = body.len();
    t.encode_s = time_calls(BUDGET, MIN_REPS, || {
        let body = encode_compare_body(7, &record);
        std::hint::black_box(encode_batch(&[(1, 1, &body)], codec));
    });
    let frame = encode_batch(&[(1, 1, &body)], codec).bytes;
    t.decode_s = time_calls(BUDGET, MIN_REPS, || {
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        let f = dec.next_frame().expect("frame").expect("whole frame");
        let (iteration, got) = decode_compare_body(&f.body).expect("compare body");
        assert!(iteration == 7 && got == record, "wire round trip");
    });

    std::fs::create_dir_all(dir).expect("scratch dir");
    let mut log = EventLog::create(dir.join("events.log")).expect("event log");
    let journal_record = [0x5au8; 64];
    t.append_s = time_calls(BUDGET, MIN_REPS, || {
        log.append(&journal_record).expect("append");
    });
    let slots = SlotStore::new(dir);
    let data = SlotData {
        epoch: 1,
        entries: (0..2u8)
            .flat_map(|replica| {
                let payload = &payload;
                (0..ranks as u64).map(move |rank| SlotEntry {
                    replica,
                    rank,
                    iteration: 7,
                    payload: payload.clone(),
                })
            })
            .collect(),
    };
    let mut slot = 0u8;
    t.slot_write_s = time_calls(BUDGET, MIN_REPS, || {
        slots.write(slot, &data).expect("slot write");
        slot ^= 1;
    });
    t
}
