//! Bit-packed syndrome packets and their wire codec.
//!
//! A [`SyndromePacket`] is what travels through the [ring
//! buffer](crate::queue::SpmcRing): the id of the lattice the round belongs
//! to, the round index, the emission timestamp (virtual nanoseconds since the
//! engine epoch, used for end-to-end latency), and the [`Syndrome`] itself,
//! whose `u64` words are the payload as they stand.  The [`PacketCodec`] flattens a packet into the fixed `u64`-word
//! records the ring stores — three header words plus `ceil(bits / 64)`
//! syndrome words, sized for the *largest* lattice of the set so every
//! lattice's rounds fit the same slots — and restores it on the consumer
//! side.
//!
//! The header carries a format version and the packet's own syndrome bit
//! length next to the `lattice_id`, so the decoding side can verify that the
//! packet was encoded for the lattice registered under that id: a mismatched
//! record would otherwise silently misdecode into a wrong-width syndrome.
//!
//! Since format version 3 every record additionally ends in a trailer word
//! holding a 64-bit mix checksum of all preceding words.  The header checks
//! only cover the fields they name — a bit flip in the round index, the
//! timestamp or the payload is invisible to them — so the checksum is what
//! turns *any* in-flight corruption into a typed [`PacketError::Corrupted`]
//! instead of a silently wrong decode.
//!
//! Format version 4 adds an *opt-in* error payload: a codec built with
//! [`PacketCodec::with_error_payload`] appends the round's seeded physical
//! error — a [`PauliString`] packed as two bitplanes (X components, then Z
//! components), sized for the largest lattice's data-qubit count — between
//! the syndrome payload and the checksum trailer.  This is what lets workers
//! classify residuals *in stream*, retaining nothing per round.  Whether records carry errors is fixed at codec construction for
//! the whole run (both sides are built from the same
//! [`LatticeSet`](crate::lattice_set::LatticeSet)); the checksum covers the
//! extra words automatically.
//!
//! The codec also carries the *retirement watermarks* of elastic runs:
//! [`PacketCodec::retire_lattice`] marks a lattice id as retired after its
//! final round, shared across codec clones, and [`PacketCodec::verify`]
//! quarantines later rounds as [`PacketError::RetiredLattice`] while letting
//! the in-flight backlog drain.  Watermarks are codec state, not wire
//! layout, so the format version is unchanged.

use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::syndrome::Syndrome;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One round of syndrome data in flight between generation and decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyndromePacket {
    /// Id of the lattice (logical qubit) the round belongs to — an index
    /// into the engine's [`LatticeSet`](crate::lattice_set::LatticeSet).
    /// Single-lattice runs use id `0`.
    pub lattice_id: u32,
    /// Zero-based index of the syndrome-generation round *of that lattice*.
    pub round: u64,
    /// Nanoseconds since the engine epoch at which the round was generated.
    pub emitted_ns: u64,
    /// The syndrome of the round.
    pub syndrome: Syndrome,
}

impl SyndromePacket {
    /// Builds a packet around a copy of `syndrome`.
    #[must_use]
    pub fn new(lattice_id: u32, round: u64, emitted_ns: u64, syndrome: &Syndrome) -> Self {
        SyndromePacket {
            lattice_id,
            round,
            emitted_ns,
            syndrome: syndrome.clone(),
        }
    }
}

/// Why a record was rejected by [`PacketCodec::try_decode_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
    /// The record was encoded by an incompatible codec version.
    VersionMismatch {
        /// Version found in the header.
        found: u16,
        /// Version this codec speaks ([`PacketCodec::VERSION`]).
        expected: u16,
    },
    /// The header names a lattice id the codec has no registration for.
    UnknownLattice {
        /// The out-of-range lattice id.
        lattice_id: u32,
    },
    /// The header's ancilla count disagrees with the lattice registered
    /// under its `lattice_id` — the record was encoded for a different
    /// lattice shape and would misdecode.
    AncillaMismatch {
        /// The lattice id named by the header.
        lattice_id: u32,
        /// Ancilla count carried in the header.
        header_bits: u32,
        /// Ancilla count of the registered lattice.
        registered_bits: u32,
    },
    /// The record's trailer checksum does not match its contents: the record
    /// was corrupted in flight (the header fields alone may still look
    /// plausible, so this is the check that catches payload, round and
    /// timestamp damage).
    Corrupted {
        /// The checksum recomputed from the record's contents.
        expected: u64,
        /// The checksum found in the trailer word.
        found: u64,
    },
    /// The record claims a round at or past its lattice's retirement
    /// watermark ([`PacketCodec::retire_lattice`]): the lattice was retired
    /// after emitting `final_round` rounds, so a straggler or forged record
    /// for a later round is quarantined while in-flight earlier rounds still
    /// drain to the final frame.
    RetiredLattice {
        /// The lattice id named by the header.
        lattice_id: u32,
        /// The round the record claims.
        round: u64,
        /// Rounds the lattice emitted before retiring (the watermark).
        final_round: u64,
    },
}

impl fmt::Display for PacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PacketError::VersionMismatch { found, expected } => {
                write!(f, "packet version {found} but codec expects {expected}")
            }
            PacketError::UnknownLattice { lattice_id } => {
                write!(f, "packet names unregistered lattice {lattice_id}")
            }
            PacketError::AncillaMismatch {
                lattice_id,
                header_bits,
                registered_bits,
            } => write!(
                f,
                "packet for lattice {lattice_id} carries {header_bits} ancilla bits, but the \
                 registered lattice has {registered_bits}"
            ),
            PacketError::Corrupted { expected, found } => write!(
                f,
                "packet record corrupted in flight: checksum {found:#018x} does not match \
                 contents ({expected:#018x})"
            ),
            PacketError::RetiredLattice {
                lattice_id,
                round,
                final_round,
            } => write!(
                f,
                "packet claims round {round} of lattice {lattice_id}, which retired after \
                 {final_round} rounds"
            ),
        }
    }
}

impl std::error::Error for PacketError {}

/// Encoder/decoder between [`SyndromePacket`]s and fixed-size word records.
///
/// The codec is parameterized by the syndrome bit length (ancilla count) of
/// every registered lattice, which fixes the record size — three header
/// words plus enough payload words for the *largest* lattice — for the whole
/// run.  Smaller lattices' records are zero-padded; the header's bit-length
/// field says how much payload is live.
#[derive(Debug, Clone)]
pub struct PacketCodec {
    /// Ancilla count per lattice id.
    lattice_bits: Vec<u32>,
    /// Payload words needed by the largest lattice.
    max_syndrome_words: usize,
    /// Data-qubit count per lattice id when records carry the round's seeded
    /// error as a packed Pauli payload; empty for errorless codecs.
    lattice_data: Vec<u32>,
    /// Error-payload words (two bitplanes sized for the largest lattice's
    /// data-qubit count); `0` for errorless codecs.
    error_words: usize,
    /// Per-lattice retirement watermark: records claiming round `>=` the
    /// watermark are quarantined ([`PacketError::RetiredLattice`]);
    /// `u64::MAX` means not retired.  Shared across clones, so retiring on
    /// the producer's codec is immediately visible to every worker's.
    retired: Arc<Vec<AtomicU64>>,
}

impl PartialEq for PacketCodec {
    fn eq(&self, other: &Self) -> bool {
        self.lattice_bits == other.lattice_bits
            && self.max_syndrome_words == other.max_syndrome_words
            && self.lattice_data == other.lattice_data
            && self.error_words == other.error_words
            && self.retired.len() == other.retired.len()
            && self
                .retired
                .iter()
                .zip(other.retired.iter())
                .all(|(a, b)| a.load(Ordering::Acquire) == b.load(Ordering::Acquire))
    }
}

impl Eq for PacketCodec {}

/// Number of header words preceding the syndrome payload
/// (version/lattice/bits, round, emitted_ns).
const HEADER_WORDS: usize = 3;

/// Number of trailer words following the syndrome payload (the integrity
/// checksum).
const TRAILER_WORDS: usize = 1;

/// The record integrity checksum: a 64-bit multiply-xor-shift mix folded over
/// every word preceding the trailer.  A flip of any single bit anywhere in
/// the record avalanches through the multiply, so header *and* payload
/// corruption is detected; colliding by accident requires matching a full
/// 64-bit digest.
#[must_use]
fn record_checksum(words: &[u64]) -> u64 {
    let mut acc = 0x9E37_79B9_7F4A_7C15u64;
    for &word in words {
        acc = (acc ^ word).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        acc ^= acc >> 31;
    }
    acc
}

impl PacketCodec {
    /// The wire-format version stamped into (and checked against) every
    /// record's header.  Version 1 was the PR-2 single-lattice format with a
    /// two-word header; version 2 added the lattice-id/ancilla header fields;
    /// version 3 appends the integrity-checksum trailer word, so a v2
    /// receiver cannot mistake a v3 record for its own format (and vice
    /// versa: the version field is checked before anything else); version 4
    /// introduces the opt-in packed-error payload between syndrome and
    /// trailer ([`PacketCodec::with_error_payload`]), so a pre-v4 receiver
    /// can never misread error bitplanes as syndrome padding.
    pub const VERSION: u16 = 4;

    /// Creates a single-lattice codec: lattice id 0 with `syndrome_bits`
    /// ancilla bits.
    #[must_use]
    pub fn new(syndrome_bits: usize) -> Self {
        Self::for_lattice_bits(&[syndrome_bits])
    }

    /// Creates a codec for a set of lattices: `bits[id]` is the ancilla
    /// count of the lattice registered under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty.
    #[must_use]
    pub fn for_lattice_bits(bits: &[usize]) -> Self {
        assert!(!bits.is_empty(), "codec needs at least one lattice");
        let lattice_bits: Vec<u32> = bits
            .iter()
            .map(|&b| u32::try_from(b).expect("ancilla count fits u32"))
            .collect();
        let max_bits = *lattice_bits.iter().max().expect("non-empty") as usize;
        let retired = Arc::new(
            (0..lattice_bits.len())
                .map(|_| AtomicU64::new(u64::MAX))
                .collect::<Vec<_>>(),
        );
        PacketCodec {
            lattice_bits,
            max_syndrome_words: Syndrome::words_for(max_bits),
            lattice_data: Vec::new(),
            error_words: 0,
            retired,
        }
    }

    /// Retires a lattice at `final_round`: from now on, [`PacketCodec::verify`]
    /// quarantines any record claiming round `>= final_round` for this
    /// lattice as [`PacketError::RetiredLattice`], while records for earlier
    /// rounds — the in-flight backlog draining to the final frame — still
    /// verify normally.
    ///
    /// The watermark is shared across codec clones: the producer retires on
    /// its codec and every worker's clone observes it, which is how scripted
    /// [`RetireLattice`](crate::scenario::ScenarioAction::RetireLattice)
    /// actions turn straggler records into typed quarantines instead of
    /// decodes against a decommissioned patch.
    ///
    /// # Panics
    ///
    /// Panics if `lattice_id` is out of range.
    pub fn retire_lattice(&self, lattice_id: u32, final_round: u64) {
        self.retired[lattice_id as usize].store(final_round, Ordering::Release);
    }

    /// Creates a codec whose records additionally carry the round's seeded
    /// physical error: `bits[id]` is the ancilla count and `data_qubits[id]`
    /// the data-qubit count of the lattice registered under `id`.
    ///
    /// The error payload is two bitplanes sized for the largest lattice
    /// ([`PauliString::packed_words`]); smaller lattices' planes are
    /// zero-padded, like the syndrome payload.  Records from this codec must
    /// be encoded with [`PacketCodec::encode_with_error`] and their error
    /// read back with [`PacketCodec::decode_error_into`].
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length or are empty.
    #[must_use]
    pub fn with_error_payload(bits: &[usize], data_qubits: &[usize]) -> Self {
        assert_eq!(
            bits.len(),
            data_qubits.len(),
            "every lattice needs both an ancilla and a data-qubit count"
        );
        let mut codec = Self::for_lattice_bits(bits);
        codec.lattice_data = data_qubits
            .iter()
            .map(|&d| u32::try_from(d).expect("data-qubit count fits u32"))
            .collect();
        let max_data = *codec.lattice_data.iter().max().expect("non-empty") as usize;
        codec.error_words = PauliString::packed_words(max_data);
        codec
    }

    /// Returns `true` if records from this codec carry a packed error
    /// payload ([`PacketCodec::with_error_payload`]).
    #[must_use]
    pub fn carries_errors(&self) -> bool {
        !self.lattice_data.is_empty()
    }

    /// The data-qubit count registered for `lattice_id`.
    ///
    /// # Panics
    ///
    /// Panics if this codec carries no error payload or `lattice_id` is out
    /// of range.
    #[must_use]
    pub fn data_bits(&self, lattice_id: u32) -> usize {
        self.lattice_data[lattice_id as usize] as usize
    }

    /// Word offset of the error payload within a record.
    fn error_offset(&self) -> usize {
        HEADER_WORDS + self.max_syndrome_words
    }

    /// The number of registered lattices.
    #[must_use]
    pub fn num_lattices(&self) -> usize {
        self.lattice_bits.len()
    }

    /// The syndrome bit length registered for `lattice_id`.
    ///
    /// # Panics
    ///
    /// Panics if `lattice_id` is out of range.
    #[must_use]
    pub fn syndrome_bits(&self, lattice_id: u32) -> usize {
        self.lattice_bits[lattice_id as usize] as usize
    }

    /// The fixed record size in `u64` words (header plus the largest
    /// lattice's syndrome payload, plus the error payload when this codec
    /// carries one, plus the checksum trailer).
    #[must_use]
    pub fn words_per_packet(&self) -> usize {
        HEADER_WORDS + self.max_syndrome_words + self.error_words + TRAILER_WORDS
    }

    /// Packs the version, lattice id and bit length into header word 0.
    fn header_word(&self, lattice_id: u32, bits: u32) -> u64 {
        assert!(
            lattice_id < 1 << 24,
            "lattice id exceeds the 24-bit header field"
        );
        assert!(
            bits < 1 << 24,
            "ancilla count exceeds the 24-bit header field"
        );
        (u64::from(Self::VERSION) << 48) | (u64::from(lattice_id) << 24) | u64::from(bits)
    }

    /// Reads the lattice id a record claims to belong to, after validating
    /// the header against the codec's registrations.
    ///
    /// # Errors
    ///
    /// Returns a [`PacketError`] on a version, lattice-id or ancilla-count
    /// mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not exactly [`PacketCodec::words_per_packet`]
    /// words long.
    pub fn check_header(&self, words: &[u64]) -> Result<u32, PacketError> {
        assert_eq!(words.len(), self.words_per_packet(), "record size mismatch");
        let header = words[0];
        let version = (header >> 48) as u16;
        if version != Self::VERSION {
            return Err(PacketError::VersionMismatch {
                found: version,
                expected: Self::VERSION,
            });
        }
        let lattice_id = ((header >> 24) & 0xFF_FFFF) as u32;
        let header_bits = (header & 0xFF_FFFF) as u32;
        let Some(&registered_bits) = self.lattice_bits.get(lattice_id as usize) else {
            return Err(PacketError::UnknownLattice { lattice_id });
        };
        if header_bits != registered_bits {
            return Err(PacketError::AncillaMismatch {
                lattice_id,
                header_bits,
                registered_bits,
            });
        }
        Ok(lattice_id)
    }

    /// Fully validates a record — header fields *and* the trailer checksum —
    /// and returns the lattice id it belongs to.  This is what the worker
    /// loop calls before touching any per-lattice state, so a hostile or
    /// damaged record is quarantined instead of indexing anything with an
    /// untrusted id.
    ///
    /// # Errors
    ///
    /// Returns the header's [`PacketError`] if a named field fails its
    /// check, or [`PacketError::Corrupted`] for damage the header fields
    /// cannot see (round, timestamp, payload, padding).
    ///
    /// # Panics
    ///
    /// Panics if `words` is not exactly [`PacketCodec::words_per_packet`]
    /// words long.
    pub fn verify(&self, words: &[u64]) -> Result<u32, PacketError> {
        let lattice_id = self.check_header(words)?;
        let body = words.len() - TRAILER_WORDS;
        let expected = record_checksum(&words[..body]);
        let found = words[body];
        if expected != found {
            return Err(PacketError::Corrupted { expected, found });
        }
        // Only after the checksum: a corrupted record's round word is noise,
        // and `Corrupted` is the verdict that should win.
        let final_round = self.retired[lattice_id as usize].load(Ordering::Acquire);
        let round = words[1];
        if round >= final_round {
            return Err(PacketError::RetiredLattice {
                lattice_id,
                round,
                final_round,
            });
        }
        Ok(lattice_id)
    }

    /// Writes the header and syndrome payload of `packet` into `out` and
    /// returns the index one past the live syndrome words (the shared front
    /// half of [`PacketCodec::encode`] and
    /// [`PacketCodec::encode_with_error`]).
    fn write_prefix(&self, packet: &SyndromePacket, out: &mut [u64]) -> usize {
        assert_eq!(out.len(), self.words_per_packet(), "record size mismatch");
        let registered = self
            .lattice_bits
            .get(packet.lattice_id as usize)
            .unwrap_or_else(|| panic!("lattice {} is not registered", packet.lattice_id));
        assert_eq!(
            packet.syndrome.len() as u32,
            *registered,
            "packet carries a {}-bit syndrome, lattice {} is registered with {}",
            packet.syndrome.len(),
            packet.lattice_id,
            registered
        );
        out[0] = self.header_word(packet.lattice_id, *registered);
        out[1] = packet.round;
        out[2] = packet.emitted_ns;
        let payload = packet.syndrome.words();
        out[HEADER_WORDS..HEADER_WORDS + payload.len()].copy_from_slice(payload);
        HEADER_WORDS + payload.len()
    }

    /// Flattens a packet into `out`, zero-padding past the packet's payload.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not exactly [`PacketCodec::words_per_packet`] words
    /// long, if the packet's lattice id is not registered, if its syndrome
    /// length does not match the registered lattice, or if this codec was
    /// built with [`PacketCodec::with_error_payload`] (error-carrying records
    /// must state their error explicitly via
    /// [`PacketCodec::encode_with_error`]).
    pub fn encode(&self, packet: &SyndromePacket, out: &mut [u64]) {
        assert!(
            !self.carries_errors(),
            "codec carries error payloads; encode records with encode_with_error"
        );
        let end = self.write_prefix(packet, out);
        let body = out.len() - TRAILER_WORDS;
        out[end..body].fill(0);
        out[body] = record_checksum(&out[..body]);
    }

    /// Flattens a packet plus the round's seeded error into `out`
    /// (error-carrying codecs only).  The error is packed as two bitplanes
    /// after the syndrome payload; the checksum trailer covers it like every
    /// other word.
    ///
    /// # Panics
    ///
    /// Panics on everything [`PacketCodec::encode`] rejects, plus if this
    /// codec carries no error payload or `error`'s length does not match the
    /// lattice's registered data-qubit count.
    pub fn encode_with_error(&self, packet: &SyndromePacket, error: &PauliString, out: &mut [u64]) {
        assert!(
            self.carries_errors(),
            "codec carries no error payload; use encode"
        );
        let end = self.write_prefix(packet, out);
        let err_off = self.error_offset();
        out[end..err_off].fill(0);
        let data = self.data_bits(packet.lattice_id);
        assert_eq!(
            error.len(),
            data,
            "error acts on {} qubits, lattice {} is registered with {} data qubits",
            error.len(),
            packet.lattice_id,
            data
        );
        let packed = PauliString::packed_words(data);
        error.pack_into(&mut out[err_off..err_off + packed]);
        let body = out.len() - TRAILER_WORDS;
        out[err_off + packed..body].fill(0);
        out[body] = record_checksum(&out[..body]);
    }

    /// Unpacks the error payload of an already-verified record into `error`
    /// without allocating — the companion of
    /// [`PacketCodec::try_decode_into`] on the worker hot path.  `lattice_id`
    /// must be the id returned by the verifying decode (the raw peeked id is
    /// not trustworthy).
    ///
    /// # Panics
    ///
    /// Panics if this codec carries no error payload, if `words` is not
    /// exactly [`PacketCodec::words_per_packet`] words long, or if `error`'s
    /// length does not match the lattice's registered data-qubit count.
    pub fn decode_error_into(&self, words: &[u64], lattice_id: u32, error: &mut PauliString) {
        assert!(
            self.carries_errors(),
            "codec carries no error payload to decode"
        );
        assert_eq!(words.len(), self.words_per_packet(), "record size mismatch");
        let data = self.data_bits(lattice_id);
        assert_eq!(
            error.len(),
            data,
            "error buffer holds {} qubits, lattice {lattice_id} needs {}",
            error.len(),
            data
        );
        let off = self.error_offset();
        let packed = PauliString::packed_words(data);
        error.unpack_from(&words[off..off + packed]);
    }

    /// Verifies a record and restores it into an existing buffer without
    /// allocating.  The buffer's syndrome must already have the
    /// width of the record's lattice.  The decode stage, which has to
    /// [`verify`](PacketCodec::verify) before it can pick that buffer, unpacks
    /// the verified record directly instead of verifying it twice here.
    ///
    /// # Errors
    ///
    /// Returns a [`PacketError`] if the header fails the version or lattice
    /// compatibility checks, or if the trailer checksum exposes in-flight
    /// corruption.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not exactly [`PacketCodec::words_per_packet`]
    /// words long, or if `packet`'s syndrome length does not match the
    /// record's lattice.
    pub fn try_decode_into(
        &self,
        words: &[u64],
        packet: &mut SyndromePacket,
    ) -> Result<(), PacketError> {
        let lattice_id = self.verify(words)?;
        self.unpack_verified_into(words, lattice_id, packet);
        Ok(())
    }

    /// Unpacks a record that [`PacketCodec::verify`] has already accepted as
    /// belonging to `lattice_id` — the second half of
    /// [`PacketCodec::try_decode_into`], for the decode stage, which verifies
    /// once before it picks any per-lattice buffer and must not pay for the
    /// checksum a second time.
    ///
    /// # Panics
    ///
    /// Panics if `packet`'s syndrome length does not match the lattice.
    pub(crate) fn unpack_verified_into(
        &self,
        words: &[u64],
        lattice_id: u32,
        packet: &mut SyndromePacket,
    ) {
        let bits = self.syndrome_bits(lattice_id);
        assert_eq!(
            packet.syndrome.len(),
            bits,
            "packet buffer carries a {}-bit syndrome, lattice {} needs {}",
            packet.syndrome.len(),
            lattice_id,
            bits
        );
        packet.lattice_id = lattice_id;
        packet.round = words[1];
        packet.emitted_ns = words[2];
        let payload_words = Syndrome::words_for(bits);
        packet
            .syndrome
            .copy_from_words(&words[HEADER_WORDS..HEADER_WORDS + payload_words]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes `record` through the one way in, [`PacketCodec::try_decode_into`],
    /// into a fresh buffer of the width registered for the id its header names
    /// (a record whose id is noise fails validation before the width matters).
    fn decoded(codec: &PacketCodec, record: &[u64]) -> Result<SyndromePacket, PacketError> {
        let id = ((record[0] >> 24) & 0xFF_FFFF) as usize;
        let bits = codec.lattice_bits.get(id).map_or(0, |&bits| bits as usize);
        let mut buffer = SyndromePacket::new(0, 0, 0, &Syndrome::new(bits));
        codec.try_decode_into(record, &mut buffer).map(|()| buffer)
    }

    #[test]
    fn packets_round_trip_through_words() {
        let codec = PacketCodec::new(40);
        let syndrome = Syndrome::from_hot(40, &[0, 7, 39]);
        let packet = SyndromePacket::new(0, 123, 456_789, &syndrome);
        let mut record = vec![0u64; codec.words_per_packet()];
        codec.encode(&packet, &mut record);
        let restored = decoded(&codec, &record).unwrap();
        assert_eq!(restored, packet);
        assert_eq!(restored.syndrome, syndrome);
    }

    #[test]
    fn mixed_lattices_round_trip_with_padding() {
        // Lattice 0: 8 ancillas (d=3), lattice 1: 40 (d=5) — records are
        // sized for the larger one, the smaller one's tail is zero-padded.
        let codec = PacketCodec::for_lattice_bits(&[8, 40]);
        assert_eq!(codec.num_lattices(), 2);
        assert_eq!(codec.words_per_packet(), 3 + 1 + 1);
        let small = SyndromePacket::new(0, 5, 50, &Syndrome::from_hot(8, &[1, 6]));
        let large = SyndromePacket::new(1, 9, 90, &Syndrome::from_hot(40, &[0, 39]));
        let mut record = vec![u64::MAX; codec.words_per_packet()];
        codec.encode(&small, &mut record);
        assert_eq!(decoded(&codec, &record), Ok(small));
        codec.encode(&large, &mut record);
        assert_eq!(decoded(&codec, &record), Ok(large));
    }

    #[test]
    fn decode_into_reuses_the_buffer() {
        let codec = PacketCodec::new(40);
        let mut record = vec![0u64; codec.words_per_packet()];
        let mut buffer = SyndromePacket::new(0, 0, 0, &Syndrome::new(40));
        for round in 0..5u64 {
            let syndrome = Syndrome::from_hot(40, &[(round as usize) % 40, 17]);
            let packet = SyndromePacket::new(0, round, round * 100, &syndrome);
            codec.encode(&packet, &mut record);
            codec.try_decode_into(&record, &mut buffer).unwrap();
            assert_eq!(buffer, packet);
        }
    }

    #[test]
    #[should_panic(expected = "needs 40")]
    fn decode_into_rejects_mismatched_buffer() {
        let codec = PacketCodec::new(40);
        let mut record = vec![0u64; codec.words_per_packet()];
        codec.encode(
            &SyndromePacket::new(0, 0, 0, &Syndrome::new(40)),
            &mut record,
        );
        let mut buffer = SyndromePacket::new(0, 0, 0, &Syndrome::new(24));
        let _ = codec.try_decode_into(&record, &mut buffer);
    }

    #[test]
    fn record_sizes_scale_with_bits() {
        // 3 header words + payload + 1 checksum trailer word.
        assert_eq!(PacketCodec::new(40).words_per_packet(), 5); // d=5: 40 ancillas
        assert_eq!(PacketCodec::new(144).words_per_packet(), 7); // d=9
        assert_eq!(PacketCodec::new(64).words_per_packet(), 5);
        assert_eq!(PacketCodec::new(65).words_per_packet(), 6);
        // A mixed set is sized by its largest member.
        assert_eq!(
            PacketCodec::for_lattice_bits(&[8, 144, 40]).words_per_packet(),
            7
        );
    }

    #[test]
    #[should_panic(expected = "record size mismatch")]
    fn encode_rejects_short_records() {
        let codec = PacketCodec::new(40);
        let packet = SyndromePacket::new(0, 0, 0, &Syndrome::new(40));
        let mut record = vec![0u64; 2];
        codec.encode(&packet, &mut record);
    }

    #[test]
    #[should_panic(expected = "is registered with")]
    fn encode_rejects_mismatched_syndrome_length() {
        let codec = PacketCodec::new(40);
        let packet = SyndromePacket::new(0, 0, 0, &Syndrome::new(24));
        let mut record = vec![0u64; codec.words_per_packet()];
        codec.encode(&packet, &mut record);
    }

    #[test]
    #[should_panic(expected = "is not registered")]
    fn encode_rejects_unregistered_lattice() {
        let codec = PacketCodec::new(40);
        let packet = SyndromePacket::new(3, 0, 0, &Syndrome::new(40));
        let mut record = vec![0u64; codec.words_per_packet()];
        codec.encode(&packet, &mut record);
    }

    /// The compat guard: a record encoded for a lattice whose ancilla count
    /// disagrees with the receiving codec's registration for that id is
    /// rejected instead of silently misdecoding into a wrong-width syndrome.
    #[test]
    fn ancilla_count_mismatch_is_rejected() {
        // Sender registered lattice 0 with 40 ancillas...
        let sender = PacketCodec::for_lattice_bits(&[40, 40]);
        let packet = SyndromePacket::new(0, 7, 70, &Syndrome::from_hot(40, &[2]));
        let mut record = vec![0u64; sender.words_per_packet()];
        sender.encode(&packet, &mut record);
        // ...but the receiver has an 8-ancilla (d=3) lattice under id 0.
        let receiver = PacketCodec::for_lattice_bits(&[8, 40]);
        assert_eq!(receiver.words_per_packet(), sender.words_per_packet());
        assert_eq!(
            receiver.check_header(&record),
            Err(PacketError::AncillaMismatch {
                lattice_id: 0,
                header_bits: 40,
                registered_bits: 8,
            })
        );
        let mut buffer = SyndromePacket::new(0, 0, 0, &Syndrome::new(8));
        assert!(receiver.try_decode_into(&record, &mut buffer).is_err());
    }

    #[test]
    fn unknown_lattice_id_is_rejected() {
        let sender = PacketCodec::for_lattice_bits(&[40, 40]);
        let packet = SyndromePacket::new(1, 0, 0, &Syndrome::new(40));
        let mut record = vec![0u64; sender.words_per_packet()];
        sender.encode(&packet, &mut record);
        let receiver = PacketCodec::for_lattice_bits(&[40]);
        assert_eq!(
            receiver.check_header(&record),
            Err(PacketError::UnknownLattice { lattice_id: 1 })
        );
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let codec = PacketCodec::new(40);
        let packet = SyndromePacket::new(0, 0, 0, &Syndrome::new(40));
        let mut record = vec![0u64; codec.words_per_packet()];
        codec.encode(&packet, &mut record);
        // Forge a version-1 header (the PR-2 format had no version field;
        // its first word was the round index, so small values read as v0/v1).
        record[0] = (1u64 << 48) | record[0] & 0xFFFF_FFFF_FFFF;
        let err = codec.check_header(&record).unwrap_err();
        assert_eq!(
            err,
            PacketError::VersionMismatch {
                found: 1,
                expected: PacketCodec::VERSION,
            }
        );
        assert!(err.to_string().contains("version 1"));
    }

    #[test]
    fn empty_syndromes_still_carry_headers() {
        let codec = PacketCodec::new(0);
        assert_eq!(codec.words_per_packet(), 4);
        let packet = SyndromePacket::new(0, 9, 17, &Syndrome::new(0));
        let mut record = vec![0u64; 4];
        codec.encode(&packet, &mut record);
        assert_eq!(decoded(&codec, &record), Ok(packet));
    }

    /// The checksum catches damage the header fields cannot see: a flipped
    /// bit in the round index, the timestamp, the payload or the trailer
    /// itself all surface as `Corrupted`, never as a wrong decode.
    #[test]
    fn any_single_bit_flip_is_detected() {
        let codec = PacketCodec::new(40);
        let syndrome = Syndrome::from_hot(40, &[3, 17, 31]);
        let packet = SyndromePacket::new(0, 123, 456_789, &syndrome);
        let mut record = vec![0u64; codec.words_per_packet()];
        codec.encode(&packet, &mut record);
        assert!(codec.verify(&record).is_ok());
        for word in 0..record.len() {
            for bit in [0u32, 13, 31, 47, 63] {
                let mut corrupt = record.clone();
                corrupt[word] ^= 1u64 << bit;
                let err = decoded(&codec, &corrupt).unwrap_err();
                // Flips in named header fields may produce their own typed
                // error; everything else must land on the checksum.
                if word > 0 {
                    let trailer = word == record.len() - 1;
                    assert!(
                        matches!(err, PacketError::Corrupted { .. }) || trailer,
                        "word {word} bit {bit}: got {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn corruption_is_a_typed_error_not_a_misdecode() {
        let codec = PacketCodec::new(40);
        let packet = SyndromePacket::new(0, 7, 70, &Syndrome::from_hot(40, &[2, 9]));
        let mut record = vec![0u64; codec.words_per_packet()];
        codec.encode(&packet, &mut record);
        // Damage the round index: the header checks cannot see it...
        record[1] ^= 1 << 40;
        assert!(codec.check_header(&record).is_ok());
        // ...but full validation rejects it with the corruption error.
        let err = codec.verify(&record).unwrap_err();
        assert!(matches!(err, PacketError::Corrupted { .. }));
        assert!(err.to_string().contains("corrupted in flight"));
        let mut buffer = SyndromePacket::new(0, 0, 0, &Syndrome::new(40));
        assert_eq!(codec.try_decode_into(&record, &mut buffer), Err(err));
    }

    use nisqplus_qec::pauli::Pauli;

    #[test]
    fn error_payload_round_trips_across_mixed_lattices() {
        // d=3 (8 ancillas, 13 data) and d=5 (40 ancillas, 41 data): records
        // are sized for the larger lattice in both payloads.
        let codec = PacketCodec::with_error_payload(&[8, 40], &[13, 41]);
        assert!(codec.carries_errors());
        assert_eq!(codec.data_bits(0), 13);
        // 3 header + 1 syndrome + 2 error bitplanes + 1 trailer.
        assert_eq!(codec.words_per_packet(), 3 + 1 + 2 + 1);
        let mut record = vec![u64::MAX; codec.words_per_packet()];
        for (id, bits, data) in [(0u32, 8usize, 13usize), (1, 40, 41)] {
            let packet = SyndromePacket::new(id, 11, 110, &Syndrome::from_hot(bits, &[3]));
            let mut error = PauliString::identity(data);
            error.set(0, Pauli::Y);
            error.set(data - 1, Pauli::Z);
            codec.encode_with_error(&packet, &error, &mut record);
            let mut buffer = SyndromePacket::new(id, 0, 0, &Syndrome::new(bits));
            let lattice_id = codec.verify(&record).expect("valid record");
            codec.try_decode_into(&record, &mut buffer).unwrap();
            assert_eq!(buffer, packet);
            let mut restored = PauliString::identity(data);
            codec.decode_error_into(&record, lattice_id, &mut restored);
            assert_eq!(restored, error);
        }
    }

    #[test]
    fn errorless_codecs_keep_their_record_size() {
        // The error payload is strictly opt-in: the classic constructors
        // produce byte-compatible sizes with the pre-v4 format.
        assert_eq!(PacketCodec::new(40).words_per_packet(), 5);
        assert!(!PacketCodec::new(40).carries_errors());
        assert_eq!(
            PacketCodec::with_error_payload(&[40], &[41]).words_per_packet(),
            5 + 2
        );
    }

    #[test]
    #[should_panic(expected = "encode records with encode_with_error")]
    fn error_carrying_codec_rejects_plain_encode() {
        let codec = PacketCodec::with_error_payload(&[8], &[13]);
        let packet = SyndromePacket::new(0, 0, 0, &Syndrome::new(8));
        let mut record = vec![0u64; codec.words_per_packet()];
        codec.encode(&packet, &mut record);
    }

    #[test]
    #[should_panic(expected = "use encode")]
    fn errorless_codec_rejects_encode_with_error() {
        let codec = PacketCodec::new(8);
        let packet = SyndromePacket::new(0, 0, 0, &Syndrome::new(8));
        let mut record = vec![0u64; codec.words_per_packet()];
        codec.encode_with_error(&packet, &PauliString::identity(13), &mut record);
    }

    #[test]
    #[should_panic(expected = "data qubits")]
    fn error_length_mismatch_is_rejected() {
        let codec = PacketCodec::with_error_payload(&[8], &[13]);
        let packet = SyndromePacket::new(0, 0, 0, &Syndrome::new(8));
        let mut record = vec![0u64; codec.words_per_packet()];
        codec.encode_with_error(&packet, &PauliString::identity(12), &mut record);
    }

    #[test]
    fn error_payload_corruption_is_detected() {
        let codec = PacketCodec::with_error_payload(&[40], &[41]);
        let packet = SyndromePacket::new(0, 3, 30, &Syndrome::from_hot(40, &[7]));
        let error = PauliString::from_sparse(41, &[5, 9], Pauli::X);
        let mut record = vec![0u64; codec.words_per_packet()];
        codec.encode_with_error(&packet, &error, &mut record);
        assert!(codec.verify(&record).is_ok());
        // Flip a bit inside the error bitplanes: the checksum must catch it.
        record[4] ^= 1 << 9;
        assert!(matches!(
            codec.verify(&record),
            Err(PacketError::Corrupted { .. })
        ));
    }

    #[test]
    fn retirement_quarantines_later_rounds_but_drains_earlier_ones() {
        let codec = PacketCodec::for_lattice_bits(&[8, 24]);
        let encode = |lattice_id: u32, round: u64| {
            let bits = codec.syndrome_bits(lattice_id);
            let packet = SyndromePacket::new(lattice_id, round, 0, &Syndrome::new(bits));
            let mut record = vec![0u64; codec.words_per_packet()];
            codec.encode(&packet, &mut record);
            record
        };
        assert!(codec.verify(&encode(1, 99)).is_ok());

        codec.retire_lattice(1, 5);
        // In-flight rounds below the watermark still drain.
        assert_eq!(codec.verify(&encode(1, 4)), Ok(1));
        // Rounds at or past it are quarantined with a typed verdict.
        assert_eq!(
            codec.verify(&encode(1, 5)),
            Err(PacketError::RetiredLattice {
                lattice_id: 1,
                round: 5,
                final_round: 5,
            })
        );
        let err = codec.verify(&encode(1, 12)).unwrap_err();
        assert!(err.to_string().contains("retired after 5 rounds"));
        // Other lattices are untouched.
        assert!(codec.verify(&encode(0, 1_000)).is_ok());
    }

    #[test]
    fn retirement_propagates_to_clones_and_corruption_wins() {
        let producer = PacketCodec::for_lattice_bits(&[8]);
        let worker = producer.clone();
        let packet = SyndromePacket::new(0, 7, 0, &Syndrome::new(8));
        let mut record = vec![0u64; producer.words_per_packet()];
        producer.encode(&packet, &mut record);
        assert!(worker.verify(&record).is_ok());

        producer.retire_lattice(0, 3);
        // The worker's clone shares the watermark.
        assert!(matches!(
            worker.verify(&record),
            Err(PacketError::RetiredLattice { round: 7, .. })
        ));
        // A corrupted record is reported as corruption, not retirement: its
        // round word is untrustworthy.
        let body = record.len() - 1;
        record[body] ^= 1;
        assert!(matches!(
            worker.verify(&record),
            Err(PacketError::Corrupted { .. })
        ));
    }
}
