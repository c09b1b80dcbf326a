//! NIST CAVP-style known-answer tests for AES-GCM.
//!
//! Vectors are the GCM specification test cases (McGrew–Viega, also the
//! seed vectors of the NIST CAVP `gcmEncryptExtIV` suites) for AES-128,
//! the only key size in the program. Each vector is exercised three ways, mirroring the CAVP
//! encrypt and decrypt files:
//!
//! * **Encrypt**: `seal` must produce the expected ciphertext and tag.
//! * **Decrypt**: `open` on the expected ciphertext + tag must return
//!   the plaintext.
//! * **Tag failure**: `open` with any corrupted tag byte must return
//!   `TagMismatch` and release no plaintext.

use ulp_crypto::gcm::AesGcm;
use ulp_crypto::CryptoError;

struct Kat {
    name: &'static str,
    key: &'static str,
    iv: &'static str,
    aad: &'static str,
    pt: &'static str,
    ct: &'static str,
    tag: &'static str,
}

const KATS: &[Kat] = &[
    // AES-128, GCM spec test case 1: empty plaintext, empty AAD.
    Kat {
        name: "aes128-tc1",
        key: "00000000000000000000000000000000",
        iv: "000000000000000000000000",
        aad: "",
        pt: "",
        ct: "",
        tag: "58e2fccefa7e3061367f1d57a4e7455a",
    },
    // AES-128, test case 2: one zero block.
    Kat {
        name: "aes128-tc2",
        key: "00000000000000000000000000000000",
        iv: "000000000000000000000000",
        aad: "",
        pt: "00000000000000000000000000000000",
        ct: "0388dace60b6a392f328c2b971b2fe78",
        tag: "ab6e47d42cec13bdf53a67b21257bddf",
    },
    // AES-128, test case 3: four blocks of plaintext.
    Kat {
        name: "aes128-tc3",
        key: "feffe9928665731c6d6a8f9467308308",
        iv: "cafebabefacedbaddecaf888",
        aad: "",
        pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
              1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        ct: "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
        tag: "4d5c2af327cd64a62cf35abd2ba6fab4",
    },
    // AES-128, test case 4: partial final block + 20-byte AAD.
    Kat {
        name: "aes128-tc4",
        key: "feffe9928665731c6d6a8f9467308308",
        iv: "cafebabefacedbaddecaf888",
        aad: "feedfacedeadbeeffeedfacedeadbeefabaddad2",
        pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
              1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        ct: "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
        tag: "5bc94fbc3221a5db94fae95ae7121a47",
    },
];

fn hex(s: &str) -> Vec<u8> {
    let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn cipher_for(key: &str) -> AesGcm {
    AesGcm::new_128(&hex(key).try_into().unwrap())
}

#[test]
fn cavp_encrypt_vectors() {
    for kat in KATS {
        let gcm = cipher_for(kat.key);
        let iv: [u8; 12] = hex(kat.iv).try_into().unwrap();
        let (ct, tag) = gcm.seal(&iv, &hex(kat.aad), &hex(kat.pt));
        assert_eq!(ct, hex(kat.ct), "{}: ciphertext", kat.name);
        assert_eq!(tag.to_vec(), hex(kat.tag), "{}: tag", kat.name);
    }
}

#[test]
fn cavp_decrypt_vectors() {
    for kat in KATS {
        let gcm = cipher_for(kat.key);
        let iv: [u8; 12] = hex(kat.iv).try_into().unwrap();
        let tag: [u8; 16] = hex(kat.tag).try_into().unwrap();
        let pt = gcm
            .open(&iv, &hex(kat.aad), &hex(kat.ct), &tag)
            .unwrap_or_else(|e| panic!("{}: decrypt rejected valid tag: {e:?}", kat.name));
        assert_eq!(pt, hex(kat.pt), "{}: plaintext", kat.name);
    }
}

#[test]
fn cavp_tag_failure_vectors() {
    for kat in KATS {
        let gcm = cipher_for(kat.key);
        let iv: [u8; 12] = hex(kat.iv).try_into().unwrap();
        let tag: [u8; 16] = hex(kat.tag).try_into().unwrap();
        for byte in 0..16 {
            let mut bad = tag;
            bad[byte] ^= 0x01;
            assert_eq!(
                gcm.open(&iv, &hex(kat.aad), &hex(kat.ct), &bad),
                Err(CryptoError::TagMismatch),
                "{}: corrupted tag byte {byte} accepted",
                kat.name
            );
        }
    }
}

#[test]
fn cavp_aad_binding() {
    // Tampering with the AAD must invalidate the tag even though the
    // AAD is never encrypted.
    for kat in KATS.iter().filter(|k| !k.aad.is_empty()) {
        let gcm = cipher_for(kat.key);
        let iv: [u8; 12] = hex(kat.iv).try_into().unwrap();
        let tag: [u8; 16] = hex(kat.tag).try_into().unwrap();
        let mut aad = hex(kat.aad);
        aad[0] ^= 0xFF;
        assert_eq!(
            gcm.open(&iv, &aad, &hex(kat.ct), &tag),
            Err(CryptoError::TagMismatch),
            "{}: modified AAD accepted",
            kat.name
        );
    }
}
