//! Recorded traces: a compact binary format so real application
//! traces (e.g. from `perf mem`, PIN, or DynamoRIO) can drive the
//! simulator instead of the synthetic suite models.
//!
//! Format: a 12-byte header (`magic "HDMR"`, format version u32,
//! record count u32), then one 13-byte little-endian record per
//! operation: `addr: u64`, `gap_instructions: u32`, `flags: u8`
//! (bit 0 = write).

use memsim::trace::MemOp;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"HDMR";
const VERSION: u32 = 1;

/// Records reserved up front when reading (208 KB). The header's count
/// is untrusted, so a longer trace grows the vector as records arrive.
const MAX_RESERVE: usize = 16 * 1024;

/// The header's record count for `len` ops.
fn record_count(len: usize) -> io::Result<u32> {
    u32::try_from(len).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{len} ops exceed the format's u32 record count"),
        )
    })
}

/// Writes `ops` in the recorded-trace format.
///
/// # Errors
///
/// Returns `InvalidInput`, before writing anything, when `ops` holds
/// more than `u32::MAX` operations, and propagates I/O errors from
/// `writer`.
pub fn write_trace<W: Write>(mut writer: W, ops: &[MemOp]) -> io::Result<()> {
    let count = record_count(ops.len())?;
    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&count.to_le_bytes())?;
    for op in ops {
        writer.write_all(&op.addr.to_le_bytes())?;
        writer.write_all(&op.gap_instructions.to_le_bytes())?;
        writer.write_all(&[u8::from(op.is_write)])?;
    }
    Ok(())
}

/// Reads a recorded trace back.
///
/// # Errors
///
/// Returns `InvalidData` for a bad magic, unsupported version or
/// unknown flag bits, `UnexpectedEof` for a stream shorter than its
/// header's record count, and propagates I/O errors from `reader`.
pub fn read_trace<R: Read>(mut reader: R) -> io::Result<Vec<MemOp>> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a recorded HDMR trace (bad magic)",
        ));
    }
    let mut word = [0u8; 4];
    reader.read_exact(&mut word)?;
    let version = u32::from_le_bytes(word);
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported trace version {version}"),
        ));
    }
    reader.read_exact(&mut word)?;
    let count = u32::from_le_bytes(word) as usize;

    let mut ops = Vec::with_capacity(count.min(MAX_RESERVE));
    let mut record = [0u8; 13];
    for _ in 0..count {
        reader.read_exact(&mut record)?;
        let addr = u64::from_le_bytes(record[0..8].try_into().expect("8 bytes"));
        let gap = u32::from_le_bytes(record[8..12].try_into().expect("4 bytes"));
        let flags = record[12];
        if flags > 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown flag bits {flags:#04x}"),
            ));
        }
        ops.push(MemOp {
            addr,
            gap_instructions: gap,
            is_write: flags & 1 != 0,
        });
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Suite, TraceGen};
    use proptest::prelude::*;

    proptest! {
        /// Arbitrary bytes — raw, or behind a valid magic and version so
        /// the count and records are exercised — read as `Ok` or `Err`,
        /// never a panic, and an `Ok` trace has a record for each op.
        #[test]
        fn arbitrary_bytes_never_panic(
            valid_header in any::<bool>(),
            bytes in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            let mut input = Vec::new();
            if valid_header {
                input.extend_from_slice(MAGIC);
                input.extend_from_slice(&VERSION.to_le_bytes());
            }
            input.extend_from_slice(&bytes);
            if let Ok(ops) = read_trace(input.as_slice()) {
                prop_assert!(12 + 13 * ops.len() <= input.len());
            }
        }
    }

    #[test]
    fn huge_record_count_without_body_is_rejected() {
        // A 12-byte file claiming u32::MAX records must fail on the
        // missing body, not reserve ~68 GB for it.
        let mut buffer = Vec::new();
        buffer.extend_from_slice(MAGIC);
        buffer.extend_from_slice(&VERSION.to_le_bytes());
        buffer.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_trace(buffer.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn record_count_rejects_more_than_u32_ops() {
        assert_eq!(record_count(7).unwrap(), 7);
        assert_eq!(record_count(u32::MAX as usize).unwrap(), u32::MAX);
        let err = record_count(u32::MAX as usize + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn round_trip_preserves_every_op() {
        let ops: Vec<MemOp> = TraceGen::new(Suite::Hpcg.params(), 9, 2_000).collect();
        let mut buffer = Vec::new();
        write_trace(&mut buffer, &ops).unwrap();
        // 12-byte header + 13 bytes per record.
        assert_eq!(buffer.len(), 12 + 13 * ops.len());
        let back = read_trace(buffer.as_slice()).unwrap();
        assert_eq!(back, ops);
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut buffer = Vec::new();
        write_trace(&mut buffer, &[]).unwrap();
        assert_eq!(read_trace(buffer.as_slice()).unwrap(), Vec::new());
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_trace(&b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buffer = Vec::new();
        buffer.extend_from_slice(MAGIC);
        buffer.extend_from_slice(&99u32.to_le_bytes());
        buffer.extend_from_slice(&0u32.to_le_bytes());
        let err = read_trace(buffer.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_stream_rejected() {
        let ops: Vec<MemOp> = TraceGen::new(Suite::Npb.params(), 1, 10).collect();
        let mut buffer = Vec::new();
        write_trace(&mut buffer, &ops).unwrap();
        buffer.truncate(buffer.len() - 5);
        assert!(read_trace(buffer.as_slice()).is_err());
    }

    #[test]
    fn garbage_flags_rejected() {
        let mut buffer = Vec::new();
        write_trace(&mut buffer, &[MemOp::load(0, 1)]).unwrap();
        *buffer.last_mut().unwrap() = 0xFF;
        assert!(read_trace(buffer.as_slice()).is_err());
    }

    #[test]
    fn recorded_trace_drives_the_simulator() {
        use memsim::config::{ChannelMode, HierarchyConfig};
        use memsim::NodeSim;
        let h = HierarchyConfig::hierarchy1();
        let ops: Vec<MemOp> = TraceGen::new(Suite::Lulesh.params(), 3, 500).collect();
        let mut buffer = Vec::new();
        write_trace(&mut buffer, &ops).unwrap();
        let replayed = read_trace(buffer.as_slice()).unwrap();
        let mut node = NodeSim::new(h, ChannelMode::commercial_baseline());
        let streams: Vec<_> = (0..h.cores).map(|_| replayed.clone().into_iter()).collect();
        let result = node.run(streams);
        assert!(result.exec_time_ps > 0);
    }
}
