#include "src/net/network.h"

#include <algorithm>
#include <cmath>

#include "src/base/strings.h"

namespace flux {

// ----- hostile-network profiles -----

double NetProfile::MeanLossRate() const {
  double burst_share = 0.0;
  if (burst_enter > 0.0 && burst_enter + burst_exit > 0.0) {
    burst_share = burst_enter / (burst_enter + burst_exit) * burst_loss;
  }
  return std::min(0.9, loss_rate + burst_share);
}

double NetProfile::MeanRateFactor() const {
  return 1.0 - rate_dip_duty * (1.0 - rate_dip_factor);
}

namespace {

NetProfile CleanProfile() { return NetProfile{}; }

NetProfile CampusProfile() {
  NetProfile p;
  p.name = "campus";
  p.loss_rate = 0.002;
  p.jitter_mean = Millis(2);
  p.jitter_sigma = 0.4;
  p.rate_dip_factor = 0.8;
  p.rate_dip_duty = 0.05;
  return p;
}

NetProfile HomeProfile() {
  NetProfile p;
  p.name = "home";
  p.loss_rate = 0.005;
  p.burst_enter = 0.01;
  p.burst_exit = 0.3;
  p.burst_loss = 0.25;
  p.jitter_mean = Millis(4);
  p.jitter_sigma = 0.6;
  p.rate_dip_factor = 0.6;
  p.rate_dip_duty = 0.10;
  return p;
}

NetProfile LteProfile() {
  NetProfile p;
  p.name = "lte";
  p.loss_rate = 0.01;
  // Cell handovers cluster losses: a burst layer on top of the flat rate
  // (stationary share ~1.2%, keeping lte between home and hostile).
  p.burst_enter = 0.01;
  p.burst_exit = 0.25;
  p.burst_loss = 0.3;
  p.corrupt_fraction = 0.10;
  p.jitter_mean = Millis(15);
  p.jitter_sigma = 0.8;
  p.rate_dip_factor = 0.5;
  p.rate_dip_duty = 0.15;
  return p;
}

NetProfile HostileProfile() {
  NetProfile p;
  p.name = "hostile";
  p.loss_rate = 0.02;
  p.burst_enter = 0.02;
  p.burst_exit = 0.25;
  p.burst_loss = 0.5;
  p.corrupt_fraction = 0.25;
  p.jitter_mean = Millis(25);
  p.jitter_sigma = 1.0;
  p.rate_dip_factor = 0.35;
  p.rate_dip_duty = 0.25;
  p.outage_every = Seconds(25);
  p.outage_duration = Seconds(2);
  return p;
}

}  // namespace

Result<NetProfile> NetProfile::Named(std::string_view name) {
  if (name == "clean") return CleanProfile();
  if (name == "campus") return CampusProfile();
  if (name == "home") return HomeProfile();
  if (name == "lte") return LteProfile();
  if (name == "hostile") return HostileProfile();
  return InvalidArgument("unknown network profile: " + std::string(name));
}

const std::vector<std::string_view>& NetProfile::PresetNames() {
  static const std::vector<std::string_view> names = {
      "clean", "campus", "home", "lte", "hostile"};
  return names;
}

bool LinkShaper::NextFrameLost() {
  // Advance the Gilbert-Elliott chain, then draw the frame's fate from the
  // state it is in. The chain advances per frame regardless of outcome so
  // burst lengths are geometric in frames, as in the classic model.
  if (in_burst_) {
    if (rng_.NextBool(profile_.burst_exit)) {
      in_burst_ = false;
    }
  } else if (profile_.burst_enter > 0.0 &&
             rng_.NextBool(profile_.burst_enter)) {
    in_burst_ = true;
  }
  const double p =
      profile_.loss_rate + (in_burst_ ? profile_.burst_loss : 0.0);
  return rng_.NextBool(p);
}

double LinkShaper::NextRateFactor() {
  if (profile_.rate_dip_duty <= 0.0) {
    return 1.0;
  }
  return rng_.NextBool(profile_.rate_dip_duty)
             ? std::clamp(profile_.rate_dip_factor, 0.05, 1.0)
             : 1.0;
}

SimDuration LinkShaper::NextJitter() {
  if (profile_.jitter_mean <= 0) {
    return 0;
  }
  if (profile_.jitter_sigma <= 0.0) {
    return profile_.jitter_mean;
  }
  // Log-normal with mean jitter_mean: mu = ln(mean) - sigma^2/2.
  const double mean = ToSecondsF(profile_.jitter_mean);
  const double sigma = profile_.jitter_sigma;
  const double mu = std::log(mean) - sigma * sigma / 2.0;
  return FromSecondsF(rng_.NextLogNormal(mu, sigma));
}

Result<ChunkTransmission> TransmitFramedChunk(
    ByteSpan chunk, LinkShaper& shaper, const FrameStreamOptions& options,
    uint32_t base_seq, uint32_t base_group, FlightRecorder* recorder) {
  constexpr int kMaxRetransmitRounds = 16;
  ChunkTransmission tx;
  const std::vector<Bytes> frames =
      EncodeFrameStream(chunk, options, base_seq, base_group);
  const uint64_t data_count = DataFrameCount(chunk.size(), options);
  tx.next_seq = base_seq + static_cast<uint32_t>(data_count);
  const uint64_t k = std::max<uint32_t>(1, options.fec_group_data_frames);
  tx.next_group =
      base_group + (options.fec
                        ? static_cast<uint32_t>((data_count + k - 1) / k)
                        : 0);

  FrameAssembler assembler(chunk.size(), options, base_seq, base_group);
  // One transmission attempt: the frame either vanishes, arrives corrupt
  // (the CRC catches it — same as a loss, plus evidence), or lands.
  auto send = [&](const Bytes& frame, bool retransmit) -> Status {
    tx.wire_bytes += frame.size();
    ++tx.frames_sent;
    if (retransmit) {
      tx.retransmit_bytes += frame.size();
      ++tx.frames_retransmitted;
    }
    if (shaper.NextFrameLost()) {
      tx.lost_bytes += frame.size();
      ++tx.frames_lost;
      if (shaper.NextLossIsCorrupt()) {
        ++tx.crc_errors;
        // Deliver a corrupted copy so the CRC check really runs.
        Bytes mangled = frame;
        mangled[mangled.size() - 1] ^= 0xA5;
        Status accepted =
            assembler.Accept(ByteSpan(mangled.data(), mangled.size()));
        if (accepted.ok()) {
          return Internal("corrupted frame passed CRC validation");
        }
        FLUX_EVENT(recorder, flight_events::kSubNet,
                   flight_events::kNetFrameCrcError, EventSeverity::kWarning,
                   frame.size(), base_seq);
      }
      return OkStatus();
    }
    return assembler.Accept(ByteSpan(frame.data(), frame.size()));
  };

  for (const Bytes& frame : frames) {
    if (frame[kFrameOffType] == static_cast<uint8_t>(FrameType::kParity)) {
      ++tx.parity_frames;
    } else {
      ++tx.data_frames;
    }
    FLUX_RETURN_IF_ERROR(send(frame, /*retransmit=*/false));
  }

  // Retransmit what parity could not rebuild, as many rounds as it takes
  // (retransmissions are subject to the same loss process).
  std::vector<uint32_t> missing = assembler.MissingSeqs();
  for (int round = 0; !missing.empty(); ++round) {
    if (round >= kMaxRetransmitRounds) {
      return Unavailable(StrFormat(
          "loss storm: %zu frames undeliverable after %d retransmit rounds",
          missing.size(), kMaxRetransmitRounds));
    }
    for (const uint32_t seq : missing) {
      const uint64_t index = seq - base_seq;
      const uint64_t per = std::max<uint32_t>(1, options.frame_payload_bytes);
      const uint64_t begin = index * per;
      const uint64_t len = std::min<uint64_t>(per, chunk.size() - begin);
      FrameHeader h;
      h.type = FrameType::kData;
      h.seq = seq;
      h.flags = kFrameFlagRetransmit;
      if (options.fec) {
        h.flags |= kFrameFlagFecGroup;
        h.fec_group = base_group + static_cast<uint32_t>(index / k);
      }
      const Bytes frame = EncodeFrame(h, chunk.subspan(begin, len));
      FLUX_RETURN_IF_ERROR(send(frame, /*retransmit=*/true));
    }
    missing = assembler.MissingSeqs();
  }
  // Read after reconstruction: MissingSeqs is what runs the parity rebuild.
  tx.frames_recovered = assembler.recovered_frames();

  FLUX_ASSIGN_OR_RETURN(Bytes rebuilt, assembler.Finish());
  if (rebuilt.size() != chunk.size() ||
      !std::equal(rebuilt.begin(), rebuilt.end(), chunk.begin())) {
    return Internal("frame reassembly produced different bytes than sent");
  }
  return tx;
}

WifiNetwork::WifiNetwork() {
  // Defaults modeled on a congested urban campus network (§4): both bands
  // are heavily contended (the paper's transfers average ~13 Mbit/s of
  // goodput); the 2.4 GHz band — all a Nexus 7 (2012) can use — is worst.
  // Efficiency is the fraction of the *peak PHY rate* realized as goodput.
  band_2_4_ = BandConditions{0.15, Millis(15)};
  band_5_ = BandConditions{0.13, Millis(6)};
}

void WifiNetwork::set_tracer(Tracer* tracer) {
#if FLUX_TRACE_ENABLED
  trace_bytes_ =
      tracer ? tracer->counter(trace_names::kNetWireBytes) : nullptr;
  trace_transfers_ =
      tracer ? tracer->counter(trace_names::kNetTransfers) : nullptr;
  trace_ticks_ =
      tracer ? tracer->counter(trace_names::kNetTransferTicks) : nullptr;
  hist_tick_ = tracer ? tracer->histogram(trace_names::kHistNetTick) : nullptr;
#else
  (void)tracer;
#endif
}

void WifiNetwork::SetBandConditions(WifiBand band, BandConditions conditions) {
  (band == WifiBand::k2_4GHz ? band_2_4_ : band_5_) = conditions;
}

const BandConditions& WifiNetwork::conditions(WifiBand band) const {
  return band == WifiBand::k2_4GHz ? band_2_4_ : band_5_;
}

EffectiveLink WifiNetwork::LinkBetween(const RadioProfile& a,
                                       const RadioProfile& b) const {
  EffectiveLink link;
  const bool both_5ghz = a.supports_5ghz && b.supports_5ghz;
  link.band = both_5ghz ? WifiBand::k5GHz : WifiBand::k2_4GHz;
  const BandConditions& cond = conditions(link.band);

  // Endpoint PHY rates degrade on 2.4 GHz relative to the radio's peak.
  auto endpoint_rate = [&](const RadioProfile& radio) -> uint64_t {
    if (link.band == WifiBand::k2_4GHz && radio.supports_5ghz) {
      return radio.peak_phy_bps / 2;  // falling back to the narrow band
    }
    return radio.peak_phy_bps;
  };
  const uint64_t phy = std::min(endpoint_rate(a), endpoint_rate(b));
  link.goodput_bps =
      static_cast<uint64_t>(static_cast<double>(phy) * cond.efficiency);
  link.latency = cond.base_latency;
  return link;
}

SimDuration WifiNetwork::TransferTime(uint64_t bytes,
                                      const EffectiveLink& link) const {
  if (link.goodput_bps == 0) {
    return Seconds(3600);  // effectively unreachable
  }
  const double seconds =
      static_cast<double>(bytes) * 8.0 / static_cast<double>(link.goodput_bps);
  return link.latency + FromSecondsF(seconds);
}

void WifiNetwork::Transfer(SimClock& clock, uint64_t bytes,
                           const EffectiveLink& link) {
  clock.Advance(TransferTime(bytes, link));
  AccountTransfer(bytes, link);
}

void WifiNetwork::AccountTransfer(uint64_t bytes, const EffectiveLink& link) {
  AccountTraffic(bytes);
  FLUX_EVENT(flight_recorder_, flight_events::kSubNet,
             flight_events::kNetTransfer, EventSeverity::kDebug, bytes,
             link.goodput_bps);
}

void WifiNetwork::ScheduleOutageWindow(SimTime at, SimDuration duration) {
  if (duration <= 0) {
    return;
  }
  windows_.push_back(OutageWindow{at, duration});
}

void WifiNetwork::ApplyProfile(const NetProfile& profile, uint64_t seed) {
  profile_ = profile;
  profile_outage_phase_ = 0;
  if (profile_.outage_every > 0 && profile_.outage_duration > 0) {
    // Phase the recurring schedule into the second half of the first period
    // so short migrations on long-period profiles still meet an outage
    // occasionally, not deterministically at t=0.
    Rng rng(seed ^ 0x6f757467u);  // "outg"
    const uint64_t half = static_cast<uint64_t>(profile_.outage_every) / 2;
    profile_outage_phase_ =
        half + (half > 0 ? rng.NextBelow(half) : 0);
  }
}

bool WifiNetwork::InOutageWindow(SimTime now, SimTime* until,
                                 uint64_t* id) const {
  // Explicit windows first (tests sweep these), then the profile schedule.
  for (size_t i = 0; i < windows_.size(); ++i) {
    const OutageWindow& w = windows_[i];
    if (now >= w.at && now < w.at + static_cast<SimTime>(w.duration)) {
      *until = w.at + static_cast<SimTime>(w.duration);
      *id = i + 1;  // 0 means "none reported yet"
      return true;
    }
  }
  if (profile_.outage_every > 0 && profile_.outage_duration > 0 &&
      now >= profile_outage_phase_) {
    const uint64_t period = static_cast<uint64_t>(profile_.outage_every);
    const uint64_t since = now - profile_outage_phase_;
    const uint64_t k = since / period;
    if (since - k * period < static_cast<uint64_t>(profile_.outage_duration)) {
      *until = profile_outage_phase_ + k * period +
               static_cast<SimTime>(profile_.outage_duration);
      *id = (1ull << 32) + k;  // disjoint from explicit-window ids
      return true;
    }
  }
  return false;
}

bool WifiNetwork::UpAt(SimTime now) {
  if (has_outage_ && now >= outage_at_) {
    up_ = false;
    has_outage_ = false;
    FLUX_EVENT(flight_recorder_, flight_events::kSubNet,
               flight_events::kNetOutage, EventSeverity::kError, outage_at_,
               now);
  }
  if (!up_) {
    return false;
  }
  SimTime until = 0;
  uint64_t id = 0;
  if (InOutageWindow(now, &until, &id)) {
    if (id != last_outage_reported_) {
      last_outage_reported_ = id;
      FLUX_EVENT(flight_recorder_, flight_events::kSubNet,
                 flight_events::kNetOutage, EventSeverity::kError, now, until);
    }
    return false;
  }
  return true;
}

bool WifiNetwork::NextUpAt(SimTime now, SimTime* when) const {
  if (!up_) {
    return false;  // permanent until someone calls set_up(true)
  }
  if (has_outage_ && now >= outage_at_) {
    return false;  // a pending permanent outage is already due
  }
  // Chase chained windows: recovery from one window may land inside the
  // next (explicit windows can overlap the profile schedule).
  SimTime t = now;
  SimTime until = 0;
  uint64_t id = 0;
  int hops = 0;
  while (InOutageWindow(t, &until, &id)) {
    t = until;
    if (++hops > 1024) {
      return false;  // pathological overlap; treat as unrecoverable
    }
  }
  if (has_outage_ && t >= outage_at_) {
    return false;  // recovery would land after the permanent outage fires
  }
  *when = t;
  return true;
}

}  // namespace flux
