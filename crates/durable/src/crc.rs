//! CRC-32 (ISO-HDLC): the checksum guarding every WAL record frame and
//! snapshot body.
//!
//! This is the ubiquitous reflected CRC-32 — polynomial `0xEDB88320`,
//! initial value and final XOR `0xFFFF_FFFF` — the same parameterisation
//! zlib, Ethernet and PNG use. It is computed slicing-by-16 (Kounavis &
//! Berry, ISCC 2005): sixteen 256-entry tables built at compile time
//! (16 KiB), one 16-byte step per iteration, and the one-table bytewise
//! loop for the tail. Each of a step's sixteen lookups depends only on
//! the state at the step's start, so they overlap instead of forming
//! the bytewise loop's chain of one dependent lookup per byte. The build
//! environment is offline, so the few lines are vendored rather than
//! pulled from crates.io.

/// `TABLES[k][b]` is the CRC state contribution of byte `b` followed by
/// `k` zero bytes; `TABLES[0]` is the classic bytewise table for the
/// reflected polynomial `0xEDB88320`.
static TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32/ISO-HDLC over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Feeds more bytes into a running (pre-final-XOR) CRC state. Start from
/// `0xFFFF_FFFF`, XOR with `0xFFFF_FFFF` when done; [`crc32`] is the
/// one-shot form.
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let mut crc = state;
    let mut steps = bytes.chunks_exact(16);
    for step in &mut steps {
        let mut block: [u8; 16] = step.try_into().expect("chunks_exact yields 16 bytes");
        for (b, s) in block.iter_mut().zip(crc.to_le_bytes()) {
            *b ^= s;
        }
        // Byte j of the step is followed by 15 - j more bytes.
        crc = block
            .iter()
            .zip(TABLES.iter().rev())
            .fold(0, |acc, (&b, table)| acc ^ table[b as usize]);
    }
    for &b in steps.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_check_vector() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_updates_match_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let state = crc32_update(0xFFFF_FFFF, &data[..split]);
            let state = crc32_update(state, &data[split..]);
            assert_eq!(state ^ 0xFFFF_FFFF, crc32(data), "split at {split}");
        }
    }

    /// The CRC by its definition, a byte at a time and a bit at a time,
    /// sharing nothing with the tables: the reference the sliced kernel
    /// is held to.
    fn bytewise(state: u32, bytes: &[u8]) -> u32 {
        bytes.iter().fold(state, |crc, &b| {
            let mut crc = crc ^ b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            crc
        })
    }

    #[test]
    fn matches_independent_zlib_values() {
        // Computed with Python's `zlib.crc32`, not with this module.
        let zeros = vec![0u8; 1 << 20];
        assert_eq!(crc32(&zeros), 0xa738_ea1c);
        let ramp: Vec<u8> = (0..1usize << 20).map(|i| i as u8).collect();
        assert_eq!(crc32(&ramp), 0x04d0_e435);
        let counting: Vec<u8> = (0..32u8).collect();
        assert_eq!(crc32(&counting[..17]), 0x2c18_3a19);
        assert_eq!(crc32(&counting), 0x9126_7e8a);
    }

    #[test]
    fn every_short_length_and_split_matches_the_bytewise_loop() {
        let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(
                crc32_update(0xFFFF_FFFF, &data[..len]),
                bytewise(0xFFFF_FFFF, &data[..len]),
                "length {len}"
            );
        }
        for split in 0..=33 {
            let state = crc32_update(0xFFFF_FFFF, &data[..split]);
            assert_eq!(
                crc32_update(state, &data[split..]),
                bytewise(0xFFFF_FFFF, &data),
                "split at {split}"
            );
        }
    }

    #[test]
    fn single_bit_flips_are_detected() {
        let data = b"progressive indexes";
        let reference = crc32(data);
        let mut copy = data.to_vec();
        for byte in 0..copy.len() {
            for bit in 0..8 {
                copy[byte] ^= 1 << bit;
                assert_ne!(crc32(&copy), reference, "flip {byte}:{bit} undetected");
                copy[byte] ^= 1 << bit;
            }
        }
    }
}
