//! AES block cipher (FIPS-197), from scratch.
//!
//! The S-box is *derived* (multiplicative inverse in GF(2^8) followed by
//! the affine transform) rather than transcribed, which removes a whole
//! class of table-typo bugs; the derivation itself is pinned by the
//! FIPS-197 known-answer tests below.
//!
//! Only AES-128 and only the forward cipher: GCM is CTR mode, and every
//! key in the program is 16 bytes (SmartDIMM's DSA takes a 128-bit key
//! through Config Memory, §V-A).
//!
//! The forward cipher is table-driven: [`Aes::encrypt_block`] folds
//! SubBytes, ShiftRows and MixColumns into four 256-entry "T-tables" of
//! 32-bit column images, derived at compile time from [`SBOX`] the same
//! way `SBOX` itself is derived. The byte-oriented FIPS-197 rounds are
//! kept as [`Aes::encrypt_block_bytewise`], the reference the T-table
//! cipher is tested against.

/// Multiplies two elements of GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1.
const fn gf256_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
        i += 1;
    }
    p
}

/// Multiplicative inverse in GF(2^8) via a^254 (0 maps to 0).
const fn gf256_inv(a: u8) -> u8 {
    // a^254 by square-and-multiply: 254 = 0b11111110.
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u8;
    while exp > 0 {
        if exp & 1 != 0 {
            result = gf256_mul(result, base);
        }
        base = gf256_mul(base, base);
        exp >>= 1;
    }
    result
}

const fn build_sbox() -> [u8; 256] {
    let mut sbox = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let inv = gf256_inv(i as u8);
        // Affine transform: s = inv ^ rotl(inv,1) ^ rotl(inv,2) ^ rotl(inv,3) ^ rotl(inv,4) ^ 0x63.
        let s = inv
            ^ inv.rotate_left(1)
            ^ inv.rotate_left(2)
            ^ inv.rotate_left(3)
            ^ inv.rotate_left(4)
            ^ 0x63;
        sbox[i] = s;
        i += 1;
    }
    sbox
}

/// The AES substitution box, derived at compile time.
pub const SBOX: [u8; 256] = build_sbox();

/// Builds the encryption T-tables. `TE[r][x]` is the MixColumns image,
/// as a big-endian column word, of a column holding `SBOX[x]` in row `r`
/// and zeros elsewhere: row 0 gives `(2s, s, s, 3s)` and each further
/// row rotates that word right by one byte.
const fn build_te() -> [[u32; 256]; 4] {
    let mut te = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let w = (gf256_mul(s, 2) as u32) << 24
            | (s as u32) << 16
            | (s as u32) << 8
            | gf256_mul(s, 3) as u32;
        te[0][i] = w;
        te[1][i] = w.rotate_right(8);
        te[2][i] = w.rotate_right(16);
        te[3][i] = w.rotate_right(24);
        i += 1;
    }
    te
}

/// The encryption T-tables (4 KB), derived at compile time.
static TE: [[u32; 256]; 4] = build_te();

/// AES-128 rounds; the schedule holds one more round key.
const ROUNDS: usize = 10;

const RCON: [u8; 11] = [
    0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36,
];

/// An expanded AES key (the "key schedule").
///
/// This is exactly the state SmartDIMM's TLS DSA receives through Config
/// Memory: the CPU runs the key expansion once per connection and ships
/// round keys to the DIMM, so the DSA never performs key expansion.
///
/// # Example
///
/// ```
/// use ulp_crypto::aes::Aes;
/// let aes = Aes::new_128(&[0u8; 16]);
/// let ct = aes.encrypt_block(&[0u8; 16]);
/// assert_eq!(ct, aes.encrypt_block_bytewise(&[0u8; 16]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aes {
    round_keys: [[u8; 16]; ROUNDS + 1],
}

impl Aes {
    /// Expands a 128-bit key.
    pub fn new_128(key: &[u8; 16]) -> Aes {
        let mut w = [[0u8; 4]; 4 * (ROUNDS + 1)];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            word.copy_from_slice(bytes);
        }
        for i in 4..w.len() {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / 4];
            }
            let prev = w[i - 4];
            w[i] = [
                prev[0] ^ temp[0],
                prev[1] ^ temp[1],
                prev[2] ^ temp[2],
                prev[3] ^ temp[3],
            ];
        }
        let mut round_keys = [[0u8; 16]; ROUNDS + 1];
        for (rk, words) in round_keys.iter_mut().zip(w.chunks_exact(4)) {
            for (dst, word) in rk.chunks_exact_mut(4).zip(words) {
                dst.copy_from_slice(word);
            }
        }
        Aes { round_keys }
    }

    /// The expanded round keys (11 entries of 16 bytes).
    pub fn round_keys(&self) -> &[[u8; 16]] {
        &self.round_keys
    }

    /// Encrypts one 16-byte block with the T-tables: each inner round is
    /// 16 table lookups and XORs over four big-endian column words.
    /// Agrees bit-for-bit with [`Aes::encrypt_block_bytewise`].
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut s = xor_words(columns(block), columns(&self.round_keys[0]));
        for rk in &self.round_keys[1..ROUNDS] {
            let k = columns(rk);
            let t = |c: usize| {
                TE[0][(s[c] >> 24) as usize]
                    ^ TE[1][(s[(c + 1) % 4] >> 16) as u8 as usize]
                    ^ TE[2][(s[(c + 2) % 4] >> 8) as u8 as usize]
                    ^ TE[3][s[(c + 3) % 4] as u8 as usize]
                    ^ k[c]
            };
            s = [t(0), t(1), t(2), t(3)];
        }
        // Final round: SubBytes and ShiftRows only.
        let k = columns(&self.round_keys[ROUNDS]);
        let mut out = [0u8; 16];
        for (c, col) in out.chunks_exact_mut(4).enumerate() {
            let w = u32::from_be_bytes([
                SBOX[(s[c] >> 24) as usize],
                SBOX[(s[(c + 1) % 4] >> 16) as u8 as usize],
                SBOX[(s[(c + 2) % 4] >> 8) as u8 as usize],
                SBOX[s[(c + 3) % 4] as u8 as usize],
            ]) ^ k[c];
            col.copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Encrypts one 16-byte block with the byte-oriented FIPS-197 rounds
    /// (SubBytes, ShiftRows, MixColumns by `gf256_mul`, AddRoundKey).
    ///
    /// This is the reference the T-table [`Aes::encrypt_block`] is
    /// validated against, and the "before" side of the `bench_hotpaths`
    /// AES measurement. Hot paths should use `encrypt_block`.
    pub fn encrypt_block_bytewise(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut state = *block;
        add_round_key(&mut state, &self.round_keys[0]);
        for rk in &self.round_keys[1..ROUNDS] {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, rk);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &self.round_keys[ROUNDS]);
        state
    }
}

/// The four state columns of `block` as big-endian words (row 0 in the
/// top byte).
#[inline]
fn columns(block: &[u8; 16]) -> [u32; 4] {
    let col = |c: usize| {
        u32::from_be_bytes([
            block[4 * c],
            block[4 * c + 1],
            block[4 * c + 2],
            block[4 * c + 3],
        ])
    };
    [col(0), col(1), col(2), col(3)]
}

#[inline]
fn xor_words(a: [u32; 4], b: [u32; 4]) -> [u32; 4] {
    [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]]
}

// The state is stored column-major as in FIPS-197: state[r + 4c].
// We keep it as a flat [u8; 16] where byte i of the input maps to
// row i%4, column i/4 — i.e. the natural byte order.

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

/// Row `r` of the state is bytes `r, r+4, r+8, r+12`; ShiftRows rotates
/// row `r` left by `r`.
fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = gf256_mul(col[0], 2) ^ gf256_mul(col[1], 3) ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ gf256_mul(col[1], 2) ^ gf256_mul(col[2], 3) ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ gf256_mul(col[2], 2) ^ gf256_mul(col[3], 3);
        state[4 * c + 3] = gf256_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf256_mul(col[3], 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn sbox_known_entries() {
        // Spot-check the derived S-box against FIPS-197 Table 7.
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
    }

    #[test]
    fn sbox_is_a_permutation() {
        let mut seen = [false; 256];
        for &s in SBOX.iter() {
            assert!(!seen[s as usize]);
            seen[s as usize] = true;
        }
    }

    #[test]
    fn fips197_aes128_known_answer() {
        let key: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let pt: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        let aes = Aes::new_128(&key);
        let ct = aes.encrypt_block(&pt);
        assert_eq!(ct.to_vec(), hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
        assert_eq!(aes.encrypt_block_bytewise(&pt), ct);
    }

    #[test]
    fn key_schedule_first_round_key_is_key() {
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let aes = Aes::new_128(&key);
        assert_eq!(aes.round_keys()[0], key);
    }

    #[test]
    fn fips197_appendix_a_key_expansion() {
        // FIPS-197 A.1: last round key for the 2b7e... key.
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let aes = Aes::new_128(&key);
        assert_eq!(
            aes.round_keys()[10].to_vec(),
            hex("d014f9a8c9ee2589e13f0cc8b6630ca6")
        );
    }

    #[test]
    fn t_tables_match_sbox_and_mix_columns() {
        // Column (S[x], 0, 0, 0) through MixColumns is TE[0][x]; the
        // other rows are byte rotations of it.
        for x in 0..=255u8 {
            let mut state = [0u8; 16];
            state[0] = SBOX[x as usize];
            mix_columns(&mut state);
            let w = u32::from_be_bytes([state[0], state[1], state[2], state[3]]);
            assert_eq!(TE[0][x as usize], w);
            for (r, table) in TE.iter().enumerate() {
                assert_eq!(table[x as usize], w.rotate_right(8 * r as u32));
            }
        }
    }

    proptest! {
        #[test]
        fn prop_t_table_matches_bytewise_128(key: [u8; 16], pt: [u8; 16]) {
            let aes = Aes::new_128(&key);
            prop_assert_eq!(aes.encrypt_block(&pt), aes.encrypt_block_bytewise(&pt));
        }

        #[test]
        fn prop_encryption_is_injective(key: [u8; 16], a: [u8; 16], b: [u8; 16]) {
            prop_assume!(a != b);
            let aes = Aes::new_128(&key);
            prop_assert_ne!(aes.encrypt_block(&a), aes.encrypt_block(&b));
        }
    }
}
