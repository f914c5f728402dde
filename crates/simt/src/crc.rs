//! CRC64 (ECMA-182) — the transfer-integrity checksum.
//!
//! Real GPU links protect payloads end-to-end with a link-layer CRC;
//! the simulator's checked transfer paths
//! ([`crate::Device::try_htod_checked`] /
//! [`crate::Device::try_dtoh_checked`]) model that net by computing this
//! checksum independently on both sides of every guarded copy. The
//! value is the bit-reflected ECMA-182 polynomial with all-ones init and
//! final XOR (the `xz` CRC-64 variant) — no external crates,
//! deterministic everywhere.
//!
//! The checksum runs on every guarded byte, so it is computed
//! slicing-by-16: sixteen compile-time 256-entry tables let one step
//! fold sixteen input bytes with sixteen independent lookups instead of
//! sixteen dependent ones. Table `k` maps a byte to its CRC after `k`
//! further zero bytes, so the step gives exactly the value of the
//! byte-at-a-time recurrence (a test keeps that loop as the oracle); the
//! tail shorter than sixteen bytes runs through table 0 one byte at a
//! time.

/// Bit-reflected ECMA-182 generator polynomial.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// Bytes folded per slicing step.
const SLICE: usize = 16;

/// The slicing tables, evaluated at compile time: `TABLES[0]` is the
/// classic byte table and `TABLES[k][b]` is `TABLES[k - 1][b]` advanced
/// by one zero byte.
static TABLES: [[u64; 256]; SLICE] = {
    let mut t = [[0u64; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC64/XZ of a byte slice (init and final XOR are all-ones).
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    let mut blocks = bytes.chunks_exact(SLICE);
    for b in &mut blocks {
        let lo = crc ^ u64::from_le_bytes(b[..8].try_into().expect("16-byte block"));
        let hi = u64::from_le_bytes(b[8..].try_into().expect("16-byte block"));
        let byte = |w: u64, i: u32| ((w >> (8 * i)) & 0xFF) as usize;
        crc = TABLES[15][byte(lo, 0)]
            ^ TABLES[14][byte(lo, 1)]
            ^ TABLES[13][byte(lo, 2)]
            ^ TABLES[12][byte(lo, 3)]
            ^ TABLES[11][byte(lo, 4)]
            ^ TABLES[10][byte(lo, 5)]
            ^ TABLES[9][byte(lo, 6)]
            ^ TABLES[8][byte(lo, 7)]
            ^ TABLES[7][byte(hi, 0)]
            ^ TABLES[6][byte(hi, 1)]
            ^ TABLES[5][byte(hi, 2)]
            ^ TABLES[4][byte(hi, 3)]
            ^ TABLES[3][byte(hi, 4)]
            ^ TABLES[2][byte(hi, 5)]
            ^ TABLES[1][byte(hi, 6)]
            ^ TABLES[0][byte(hi, 7)];
    }
    for &b in blocks.remainder() {
        crc = TABLES[0][((crc ^ u64::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// CRC64 of a plain-old-data slice, viewed as raw bytes. The element
/// type carries no padding by the [`crate::DeviceCopy`] contract
/// (device buffers hold scalars and scalar pairs), so the byte view is
/// fully initialised.
pub fn crc64_of<T: crate::DeviceCopy>(data: &[T]) -> u64 {
    // SAFETY: T is Copy + 'static plain-old-data; reading its bytes is
    // valid for the slice's full length.
    let bytes = unsafe {
        std::slice::from_raw_parts(data.as_ptr() as *const u8, std::mem::size_of_val(data))
    };
    crc64(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::{Rng, SplitMix64};

    /// The byte-at-a-time recurrence over the classic table — the
    /// oracle the sliced implementation must match bit for bit.
    fn crc64_bytewise(bytes: &[u8]) -> u64 {
        let mut crc = !0u64;
        for &b in bytes {
            crc = TABLES[0][((crc ^ u64::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut r = SplitMix64::new(seed);
        (0..len).map(|_| r.next_u64() as u8).collect()
    }

    #[test]
    fn matches_the_published_check_value() {
        // The canonical CRC-64/XZ check: "123456789" -> 0x995DC9BBDF1939FA.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64_bytewise(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_offset() {
        // Lengths 0..=300 cover the empty input, pure tails, exact
        // multiples of the slice and every tail length after them; the
        // start offsets cover every alignment of the 16-byte blocks.
        let buf = pseudo_random(300 + 16, 0x5EED);
        for off in 0..16 {
            for len in 0..=300 {
                let s = &buf[off..off + len];
                assert_eq!(crc64(s), crc64_bytewise(s), "offset {off}, length {len}");
            }
        }
    }

    #[test]
    fn sliced_matches_bytewise_on_a_mebibyte() {
        let buf = pseudo_random(1 << 20, 0xC0FFEE);
        assert_eq!(crc64(&buf), crc64_bytewise(&buf));
    }

    #[test]
    fn empty_input_and_identity_properties() {
        assert_eq!(crc64(b""), 0);
        assert_eq!(crc64(b"a"), crc64(b"a"));
        assert_ne!(crc64(b"a"), crc64(b"b"));
    }

    #[test]
    fn single_bit_flips_always_change_the_checksum() {
        let base: Vec<u8> = (0..64u8).collect();
        let want = crc64(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut tampered = base.clone();
                tampered[byte] ^= 1 << bit;
                assert_ne!(crc64(&tampered), want, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn typed_view_agrees_with_byte_view() {
        let v = [1.0f64, -2.5, 3.25];
        let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(crc64_of(&v), crc64(&bytes));
        assert_eq!(crc64_of::<f64>(&[]), 0);
    }
}
