#include "netserve/connection.h"

#include <utility>
#include <variant>

#include "api/json.h"

namespace fsr::netserve {

namespace {

/// Matches the stdin front-end's blank test exactly: a line of spaces,
/// tabs, and carriage returns (or nothing) is skipped without a response.
bool is_blank(const std::string& line) noexcept {
  for (const char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

}  // namespace

Connection::Connection(std::uint64_t id, const api::wire::RenderOptions& render,
                       const ConnectionLimits& limits, Submit submit)
    : id_(id),
      render_(render),
      limits_(limits),
      submit_(std::move(submit)),
      framer_(limits.max_line_bytes),
      backpressure_stalls_(
          obs::registry().counter("net.backpressure_stalls")) {}

void Connection::feed(std::string_view chunk) {
  for (Frame& frame : framer_.feed(chunk)) {
    accept_line(std::move(frame.line), frame.oversized);
  }
  pump();
  emit_ready();
  note_backpressure();
}

void Connection::input_closed() {
  input_closed_ = true;
  // std::getline also delivers a final line with no terminating newline.
  for (Frame& frame : framer_.finish()) {
    accept_line(std::move(frame.line), frame.oversized);
  }
  pump();
  emit_ready();
  note_backpressure();
}

void Connection::accept_line(std::string line, bool oversized) {
  ++line_number_;
  if (!oversized && is_blank(line)) return;

  Slot slot;
  slot.seq = next_seq_++;

  if (oversized) {
    // The content is long gone (the framer dropped it unbuffered); all
    // that can be answered is the bound itself, in-band like any other
    // per-line failure.
    reject(slot, "request line exceeds " +
                     std::to_string(framer_.max_line_bytes()) + "-byte limit");
    return;
  }

  // One parse per line: the client id, the request and (on failure) the
  // kind attribution all read the same tree.
  api::json::Value body;
  try {
    body = api::json::parse(line);
  } catch (const std::exception& error) {
    // Not even JSON: the default kind stands; the error text explains.
    reject(slot, error.what());
    return;
  }
  try {
    // Transport-level request id: an optional client-chosen unsigned
    // integer, echoed on the response and opting this line into
    // out-of-order completion. Read before the request decode so even a
    // schema-invalid request (answered in-band below) echoes its id. A
    // malformed id (fractional, negative, non-numeric) is answered in-band
    // too: parse_request ignores unknown keys, and silently dropping the
    // client's correlation id would be worse.
    if (const api::json::Value* id_value = body.find("id")) {
      slot.client_id = id_value->as_u64("id");
      slot.has_client_id = true;
    }
    slot.request = api::wire::parse_request(body);
    slot.barrier = std::holds_alternative<api::StatsRequest>(slot.request) ||
                   std::holds_alternative<api::DebugRequest>(slot.request);
    slots_.push_back(std::move(slot));
  } catch (const std::exception& error) {
    if (const auto kind = api::wire::named_kind(body)) {
      slot.response.kind = *kind;
    }
    reject(slot, error.what());
  }
}

void Connection::reject(Slot& slot, const std::string& what) {
  // Mirror the stdin front-end byte for byte: one in-band error response
  // per failing line, "line N: " prefix, best-effort kind attribution,
  // the service never touched.
  slot.response.error = "line " + std::to_string(line_number_) + ": " + what;
  slot.state = Slot::State::done;
  slots_.push_back(std::move(slot));
}

void Connection::pump() {
  // Strict slot order: the service sees this connection's requests in
  // line order, exactly like the stdin front-end submits them.
  for (Slot& slot : slots_) {
    if (slot.state == Slot::State::emitted || slot.state == Slot::State::done ||
        slot.state == Slot::State::inflight) {
      continue;
    }
    // slot is the oldest queued one. Gates, in order of cheapness:
    if (output_.size() >= limits_.max_output_bytes) return;
    if (slot.barrier && inflight_ > 0) return;
    // stats/debug are per-connection stream barriers: every earlier line
    // on this connection must have completed before the snapshot is
    // taken, so it means "everything before me" (matching stdin mode,
    // where flush_ready(true) precedes the submission). inflight_ == 0
    // suffices because submission is in slot order.
    slot.state = Slot::State::inflight;
    ++inflight_;
    submit_(slot.seq, std::move(slot.request));
    slot.request = api::Request{};
  }
}

void Connection::on_response(std::uint64_t slot, api::Response response) {
  for (Slot& entry : slots_) {
    if (entry.seq != slot || entry.state != Slot::State::inflight) continue;
    entry.response = std::move(response);
    entry.state = Slot::State::done;
    --inflight_;
    break;
  }
  pump();  // a barrier (or an output-gated slot) may be eligible now
  emit_ready();
  note_backpressure();
}

void Connection::emit_ready() {
  // Id-carrying slots: emit the moment they are done, wherever they sit —
  // out-of-order completion is exactly what the client id opted into.
  for (Slot& slot : slots_) {
    if (slot.has_client_id && slot.state == Slot::State::done) emit(slot);
  }
  // Id-less slots: request order relative to each other — the stdin
  // contract. Emitted id-carrying slots are transparent; the first
  // unfinished id-less slot stops the scan.
  for (Slot& slot : slots_) {
    if (slot.state == Slot::State::emitted) continue;
    if (slot.has_client_id) continue;  // never blocks id-less ordering
    if (slot.state != Slot::State::done) break;
    emit(slot);
  }
  while (!slots_.empty() && slots_.front().state == Slot::State::emitted) {
    slots_.pop_front();
  }
}

void Connection::emit(Slot& slot) {
  // Id-less responses carry the per-connection dense ordinal (the slot
  // seq — byte-identical to stdin mode's output ids); id-carrying ones
  // echo the client's id verbatim.
  slot.response.id = slot.has_client_id ? slot.client_id : slot.seq;
  if (!slot.response.error.empty()) saw_error_ = true;
  output_ += api::wire::render_response(slot.response, render_);
  output_ += '\n';
  slot.response = api::Response{};
  slot.state = Slot::State::emitted;
  ++emitted_count_;
}

void Connection::consume_output(std::size_t bytes) {
  output_.erase(0, bytes);
  pump();  // freed output head-room may unblock submissions
  emit_ready();
  note_backpressure();
}

bool Connection::wants_read() const noexcept {
  return slots_.size() < limits_.max_inflight &&
         output_.size() < limits_.max_output_bytes;
}

bool Connection::finished() const noexcept {
  return input_closed_ && slots_.empty() && output_.empty();
}

void Connection::note_backpressure() {
  const bool now = wants_read();
  if (was_readable_ && !now && !input_closed_) backpressure_stalls_.add(1);
  was_readable_ = now;
}

}  // namespace fsr::netserve
