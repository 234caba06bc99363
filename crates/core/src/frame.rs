//! The one framed container behind `.csnake` snapshots, the daemon's wire
//! frames and the flight recorder's journal.
//!
//! ```text
//! magic   4 bytes  which format (b"CSNK", b"CSNW", b"CSNJ")
//! version u32 LE   the one version the build writes and reads
//! length  u64 LE   payload byte count
//! check   u64 LE   FNV-1a over the payload bytes
//! payload ...      a `Persist` encoding
//! ```
//!
//! A [`Format`] is the `(magic, version)` pair; [`Format::seal`] is the
//! only code that writes this header and [`Format::header`] the only code
//! that parses it. Every format fails the same way, in this order:
//!
//! 1. a wrong magic is [`CsnakeError::SnapshotCorrupt`] — also when the
//!    input is short, since not-this-format beats torn;
//! 2. fewer than [`HEADER_LEN`] bytes, or fewer payload bytes than the
//!    header declares, is [`CsnakeError::SnapshotTorn`] (an interrupted
//!    write or a peer that died mid-frame: retry or fall back);
//! 3. any version but the format's own is [`CsnakeError::SnapshotVersion`]
//!    — payload layouts are not self-describing, so no format reads a
//!    version it does not write;
//! 4. a checksum mismatch is [`CsnakeError::SnapshotCorrupt`].
//!
//! The declared length is only ever *compared* with what is present, so a
//! hostile length neither overflows nor sizes an allocation. What differs
//! per format stays with the caller: a snapshot refuses bytes after its
//! frame, a journal loops over them, and the wire caps the length before
//! it allocates for a payload it has yet to read.

use crate::error::{CsnakeError, Result};

/// Bytes before the payload: magic + version + length + checksum.
pub const HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// FNV-1a over raw bytes: the container's integrity checksum.
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// One framed format: its magic and the single version it writes and reads.
#[derive(Debug, Clone, Copy)]
pub struct Format {
    /// Leading four bytes of every frame.
    pub magic: [u8; 4],
    /// The version written, and the only one accepted.
    pub version: u32,
}

impl Format {
    /// Wraps a payload in the header.
    pub fn seal(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a_bytes(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Checks magic and version of the header opening `bytes` and returns
    /// the payload length and checksum it declares. Reads no payload, so a
    /// stream reader can refuse a frame before waiting for the rest of it.
    pub fn header(&self, bytes: &[u8]) -> Result<(u64, u64)> {
        if bytes.len() >= 4 && bytes[..4] != self.magic {
            return Err(CsnakeError::SnapshotCorrupt(format!(
                "bad magic {:02x?}: not a {} frame",
                &bytes[..4],
                String::from_utf8_lossy(&self.magic)
            )));
        }
        if bytes.len() < HEADER_LEN {
            return Err(CsnakeError::SnapshotTorn {
                expected: HEADER_LEN as u64,
                found: bytes.len() as u64,
            });
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("sized slice"));
        if version != self.version {
            return Err(CsnakeError::SnapshotVersion {
                found: version,
                supported: self.version,
            });
        }
        let len = u64::from_le_bytes(bytes[8..16].try_into().expect("sized slice"));
        let checksum = u64::from_le_bytes(bytes[16..24].try_into().expect("sized slice"));
        Ok((len, checksum))
    }

    /// Opens the frame at the start of `bytes`: its verified payload, and
    /// whatever follows the frame.
    pub fn open<'a>(&self, bytes: &'a [u8]) -> Result<(&'a [u8], &'a [u8])> {
        let (len, checksum) = self.header(bytes)?;
        let body = &bytes[HEADER_LEN..];
        if len > body.len() as u64 {
            return Err(CsnakeError::SnapshotTorn {
                expected: (HEADER_LEN as u64).saturating_add(len),
                found: bytes.len() as u64,
            });
        }
        let (payload, rest) = body.split_at(len as usize);
        if fnv1a_bytes(payload) != checksum {
            return Err(CsnakeError::SnapshotCorrupt("checksum mismatch".into()));
        }
        Ok((payload, rest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Snapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
    use csnake_sim::SimRng;

    /// The tree's three formats. The wire's and the journal's are declared
    /// downstream of this crate, which sees only their values.
    const FORMATS: [Format; 3] = [
        Format {
            magic: SNAPSHOT_MAGIC,
            version: SNAPSHOT_VERSION,
        },
        Format {
            magic: *b"CSNW",
            version: 5,
        },
        Format {
            magic: *b"CSNJ",
            version: 2,
        },
    ];

    fn random_bytes(rng: &mut SimRng, max_len: usize) -> Vec<u8> {
        (0..rng.pick(max_len + 1))
            .map(|_| rng.raw() as u8)
            .collect()
    }

    #[test]
    fn open_returns_what_seal_was_given_and_what_follows() {
        let mut rng = SimRng::new(0xF4A3);
        for case in 0..256 {
            let format = FORMATS[case % 3];
            let payload = random_bytes(&mut rng, 300);
            let tail = random_bytes(&mut rng, 40);
            let mut bytes = format.seal(&payload);
            assert_eq!(bytes.len(), HEADER_LEN + payload.len());
            assert_eq!(format.open(&bytes).unwrap(), (&payload[..], &[][..]));
            bytes.extend_from_slice(&tail);
            assert_eq!(format.open(&bytes).unwrap(), (&payload[..], &tail[..]));
            assert_eq!(
                format.header(&bytes).unwrap(),
                (payload.len() as u64, fnv1a_bytes(&payload))
            );
        }
    }

    #[test]
    fn every_cut_is_torn_and_says_how_much_was_promised() {
        for format in FORMATS {
            let frame = format.seal(b"seventeen payload bytes, or so");
            for cut in 0..frame.len() {
                let promised = if cut < HEADER_LEN {
                    HEADER_LEN
                } else {
                    frame.len()
                };
                match format.open(&frame[..cut]) {
                    Err(CsnakeError::SnapshotTorn { expected, found }) => {
                        assert_eq!((expected, found), (promised as u64, cut as u64));
                    }
                    other => panic!("cut at {cut}: expected SnapshotTorn, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_the_error_its_field_earns() {
        for format in FORMATS {
            let payload = b"a payload long enough to shorten";
            let frame = format.seal(payload);
            for i in 0..frame.len() {
                for bit in 0..8 {
                    let mut garbled = frame.clone();
                    garbled[i] ^= 1 << bit;
                    let got = format.open(&garbled);
                    let as_expected = match i {
                        4..=7 => matches!(got, Err(CsnakeError::SnapshotVersion { .. })),
                        // A longer length promises bytes that are not
                        // there; a shorter one fails the checksum.
                        8..=15 if garbled[i] > frame[i] => {
                            matches!(got, Err(CsnakeError::SnapshotTorn { .. }))
                        }
                        _ => matches!(got, Err(CsnakeError::SnapshotCorrupt(_))),
                    };
                    assert!(as_expected, "bit {bit} of byte {i}: {got:?}");
                }
            }
        }
    }

    #[test]
    fn failures_come_in_one_order() {
        let format = FORMATS[0];
        let frame = format.seal(b"payload");
        // Wrong magic beats everything, short input included.
        let mut bad = frame.clone();
        bad[0] = b'X';
        bad[4] ^= 1;
        bad[16] ^= 1;
        for input in [&bad[..], &bad[..10], &bad[..4]] {
            match format.open(input) {
                Err(CsnakeError::SnapshotCorrupt(why)) => assert!(why.contains("magic"), "{why}"),
                other => panic!("expected a magic failure, got {other:?}"),
            }
        }
        // Too short to show a magic, or a header: torn.
        for cut in [0, 3, 4, 23] {
            assert!(matches!(
                format.open(&frame[..cut]),
                Err(CsnakeError::SnapshotTorn { expected: 24, .. })
            ));
        }
        // Version beats a short payload and a bad checksum.
        let mut other_version = frame.clone();
        other_version[4] ^= 1;
        other_version[16] ^= 1;
        assert!(matches!(
            format.open(&other_version[..HEADER_LEN + 2]),
            Err(CsnakeError::SnapshotVersion {
                found: 4,
                supported: 5
            })
        ));
        // A short payload beats the checksum it cannot be checked against.
        let mut bad_sum = frame.clone();
        bad_sum[16] ^= 1;
        assert!(matches!(
            format.open(&bad_sum[..HEADER_LEN + 2]),
            Err(CsnakeError::SnapshotTorn { .. })
        ));
        match format.open(&bad_sum) {
            Err(CsnakeError::SnapshotCorrupt(why)) => assert!(why.contains("checksum"), "{why}"),
            other => panic!("expected a checksum failure, got {other:?}"),
        }
    }

    /// A length prefix nothing backs is a torn frame in every format — not
    /// an overflow, not an allocation.
    #[test]
    fn a_hostile_length_is_torn_in_every_format() {
        for format in FORMATS {
            for body in [&b""[..], b"some payload"] {
                let frame = format.seal(body);
                // The lengths unchecked arithmetic trips on, and the
                // smallest lie.
                for len in [u64::MAX, u64::MAX - 23, 1 << 63, frame.len() as u64 + 1] {
                    let mut hostile = frame.clone();
                    hostile[8..16].copy_from_slice(&len.to_le_bytes());
                    let torn = |got: Result<()>| {
                        matches!(got, Err(CsnakeError::SnapshotTorn { expected, found })
                            if expected == (HEADER_LEN as u64).saturating_add(len)
                                && found == frame.len() as u64)
                    };
                    assert!(torn(format.open(&hostile).map(|_| ())), "length {len}");
                    assert_eq!(format.header(&hostile).unwrap().0, len);
                    if format.magic == SNAPSHOT_MAGIC {
                        assert!(
                            torn(Snapshot::from_bytes(&hostile).map(|_| ())),
                            "length {len}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn arbitrary_bytes_and_mutated_header_words_never_panic() {
        let mut rng = SimRng::new(0xBAD_F00D);
        for case in 0..4096 {
            let format = FORMATS[case % 3];
            let mut bytes = if case % 2 == 0 {
                random_bytes(&mut rng, 96)
            } else {
                // A real frame with one header field overwritten, so the
                // checks past the magic are reached.
                let mut frame = format.seal(&random_bytes(&mut rng, 64));
                let (at, width) = [(0, 4), (4, 4), (8, 8), (16, 8)][rng.pick(4)];
                let value = match rng.pick(3) {
                    0 => rng.raw(),
                    1 => rng.range(0, 128),
                    _ => u64::MAX - rng.range(0, 64),
                };
                frame[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
                frame
            };
            bytes.truncate(rng.pick(bytes.len() + 1));
            if let Ok((payload, rest)) = format.open(&bytes) {
                assert_eq!(HEADER_LEN + payload.len() + rest.len(), bytes.len());
                let (len, checksum) = format.header(&bytes).unwrap();
                assert_eq!(
                    (len, checksum),
                    (payload.len() as u64, fnv1a_bytes(payload))
                );
            }
            let _ = Snapshot::from_bytes(&bytes);
        }
    }
}
