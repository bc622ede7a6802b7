//! Bit-packed syndrome packets and the records the ring carries.
//!
//! A [`SyndromePacket`] is what travels through the [ring
//! buffer](crate::queue::SpmcRing): the id of the lattice the round belongs
//! to, the round index, the emission timestamp (virtual nanoseconds since the
//! engine epoch, used for end-to-end latency), and the [`Syndrome`] itself,
//! whose `u64` words are the payload as they stand.  The [`PacketCodec`]
//! flattens a packet into the fixed-size `u64` record a ring slot holds and
//! restores it on the consumer side.  A record is
//!
//! * word 0: the `lattice_id` (high 32 bits) and the ancilla count the
//!   encoding side registered for it (low 32 bits);
//! * word 1: the round; word 2: the emission timestamp;
//! * the syndrome's words, zero-padded to the *largest* lattice of the set
//!   so every lattice's rounds fit the same slots;
//! * for a codec built with [`PacketCodec::with_error_payload`], the round's
//!   seeded physical error — a [`PauliString`]'s own words, its X plane then
//!   its Z plane, zero-padded to the largest lattice's data-qubit count.
//!   This is what lets workers classify residuals *in stream*, retaining
//!   nothing per round.  Whether records carry errors is fixed at codec
//!   construction for the whole run (both sides are built from the same
//!   [`LatticeSet`](crate::lattice_set::LatticeSet)).
//!
//! A record never leaves the process that wrote it, so it carries no format
//! version and no checksum.  The one check [`PacketCodec::verify`] makes is
//! that the header's lattice id and ancilla count match the codec's
//! registrations: a record encoded against another lattice set is a typed
//! [`PacketError`] instead of a wrong-width syndrome.  The bytes the runtime
//! reads from outside — a recorded trace — are checked by the trace reader
//! ([`SyndromeTrace::from_json`](crate::scenario::SyndromeTrace::from_json)).

use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::syndrome::Syndrome;
use std::fmt;

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

/// Why [`PacketCodec::verify`] refused a record: its header does not match
/// the codec's registrations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
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
}

impl fmt::Display for PacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
}

/// Number of header words preceding the syndrome payload
/// (lattice/bits, round, emitted_ns).
const HEADER_WORDS: usize = 3;

impl PacketCodec {
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
        PacketCodec {
            lattice_bits,
            max_syndrome_words: Syndrome::words_for(max_bits),
            lattice_data: Vec::new(),
            error_words: 0,
        }
    }

    /// Creates a codec whose records additionally carry the round's seeded
    /// physical error: `bits[id]` is the ancilla count and `data_qubits[id]`
    /// the data-qubit count of the lattice registered under `id`.
    ///
    /// The error payload is the string's words, sized for the largest
    /// lattice ([`PauliString::words_for`]); a smaller lattice's words are
    /// followed by zeros, like the syndrome payload.  Records from this codec must
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
        codec.error_words = PauliString::words_for(max_data);
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

    /// The fixed record size in `u64` words: the header and the largest
    /// lattice's syndrome payload, plus the error payload when this codec
    /// carries one.
    #[must_use]
    pub fn words_per_packet(&self) -> usize {
        HEADER_WORDS + self.max_syndrome_words + self.error_words
    }

    /// Checks a record's header against the codec's registrations and
    /// returns the lattice id it belongs to.  This is what the worker loop
    /// calls before touching any per-lattice state, so a record encoded
    /// against another lattice set crashes the worker (which the supervisor
    /// restarts) instead of indexing anything with an id the codec does not
    /// know.
    ///
    /// # Errors
    ///
    /// Returns a [`PacketError`] on an unknown lattice id or an ancilla
    /// count that differs from the one registered for it.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not exactly [`PacketCodec::words_per_packet`]
    /// words long.
    pub fn verify(&self, words: &[u64]) -> Result<u32, PacketError> {
        assert_eq!(words.len(), self.words_per_packet(), "record size mismatch");
        let lattice_id = (words[0] >> 32) as u32;
        let header_bits = words[0] as u32;
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
        out[0] = (u64::from(packet.lattice_id) << 32) | u64::from(*registered);
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
        out[end..].fill(0);
    }

    /// Flattens a packet plus the round's seeded error into `out`
    /// (error-carrying codecs only).  The error's words — its two bitplanes —
    /// are copied after the syndrome payload.
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
        let payload = error.words();
        out[err_off..err_off + payload.len()].copy_from_slice(payload);
        out[err_off + payload.len()..].fill(0);
    }

    /// Copies the error payload of an already-verified record into `error`'s
    /// words without allocating — the companion of
    /// [`PacketCodec::try_decode_into`] on the worker hot path.  `lattice_id`
    /// must be the id [`PacketCodec::verify`] returned.
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
        error.copy_from_words(&words[off..off + PauliString::words_for(data)]);
    }

    /// Verifies a record and restores it into an existing buffer without
    /// allocating.  The buffer's syndrome must already have the
    /// width of the record's lattice.  The decode stage, which has to
    /// [`verify`](PacketCodec::verify) before it can pick that buffer, unpacks
    /// the verified record directly instead of verifying it twice here.
    ///
    /// # Errors
    ///
    /// Returns the [`PacketError`] of [`PacketCodec::verify`].
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
    /// once before it picks any per-lattice buffer.
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
        let id = (record[0] >> 32) as usize;
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
        assert_eq!(codec.words_per_packet(), 3 + 1);
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
        // 3 header words + payload.
        assert_eq!(PacketCodec::new(40).words_per_packet(), 4); // d=5: 40 ancillas
        assert_eq!(PacketCodec::new(144).words_per_packet(), 6); // d=9
        assert_eq!(PacketCodec::new(64).words_per_packet(), 4);
        assert_eq!(PacketCodec::new(65).words_per_packet(), 5);
        // A mixed set is sized by its largest member.
        assert_eq!(
            PacketCodec::for_lattice_bits(&[8, 144, 40]).words_per_packet(),
            6
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
            receiver.verify(&record),
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
            receiver.verify(&record),
            Err(PacketError::UnknownLattice { lattice_id: 1 })
        );
    }

    #[test]
    fn empty_syndromes_still_carry_headers() {
        let codec = PacketCodec::new(0);
        assert_eq!(codec.words_per_packet(), 3);
        let packet = SyndromePacket::new(0, 9, 17, &Syndrome::new(0));
        let mut record = vec![0u64; 3];
        codec.encode(&packet, &mut record);
        assert_eq!(decoded(&codec, &record), Ok(packet));
    }

    use nisqplus_qec::pauli::Pauli;

    #[test]
    fn error_payload_round_trips_across_mixed_lattices() {
        // d=3 (8 ancillas, 13 data) and d=5 (40 ancillas, 41 data): records
        // are sized for the larger lattice in both payloads.
        let codec = PacketCodec::with_error_payload(&[8, 40], &[13, 41]);
        assert!(codec.carries_errors());
        assert_eq!(codec.data_bits(0), 13);
        // 3 header + 1 syndrome + 2 error bitplanes.
        assert_eq!(codec.words_per_packet(), 3 + 1 + 2);
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
        // The error payload is strictly opt-in: an errorless record is the
        // header and the syndrome, nothing more.
        assert_eq!(PacketCodec::new(40).words_per_packet(), 4);
        assert!(!PacketCodec::new(40).carries_errors());
        assert_eq!(
            PacketCodec::with_error_payload(&[40], &[41]).words_per_packet(),
            4 + 2
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
}
