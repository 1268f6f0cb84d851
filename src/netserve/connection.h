// Connection: the per-client protocol state machine of fsr::netserve —
// everything about serving one JSON-lines client EXCEPT the socket.
//
// The server (server.h) owns file descriptors and the poll loop; a
// Connection owns the protocol: framing bytes into lines (LineFramer),
// mirroring the stdin front-end's request flow line by line (blank-line
// skipping, in-band parse errors with "line N: " prefixes, stats/debug
// drain barriers), pipelining requests into the AnalysisService, and
// assembling the outgoing byte stream. Keeping it fd-free makes the whole
// wire contract unit-testable without sockets (tests/test_netserve.cpp
// drives feed()/on_response()/take_output() directly).
//
// Ordering contract (docs/WIRE.md "Transport"):
//   * a request line WITHOUT a client "id" is answered in request order
//     relative to other id-less lines, with the response id assigned
//     densely per connection — byte-identical to piping the same lines
//     through stdin mode;
//   * a request line WITH a client-chosen `"id": N` (unsigned integer)
//     opts into out-of-order completion: its response is emitted as soon
//     as it finishes, with the client's id echoed. Each such response
//     LINE is still deterministic bytes; the inter-line order reflects
//     completion and is the one thing pipelining gives away.
//
// Backpressure: at most `max_inflight` lines may be parsed-but-unanswered
// and at most `max_output_bytes` rendered-but-unsent; beyond either bound
// wants_read() turns false (the server stops polling POLLIN — TCP's
// receive window then pushes back on the client) and further submissions
// hold. A client that never reads therefore stalls, it never OOMs the
// server — each stall transition counts into "net.backpressure_stalls".
//
// Thread-safety: none. A Connection lives on the event-loop thread; the
// service completes requests on worker threads, so the server queues
// completions and replays them on the loop thread via on_response().
#ifndef FSR_NETSERVE_CONNECTION_H
#define FSR_NETSERVE_CONNECTION_H

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>

#include "api/request.h"
#include "api/service.h"
#include "api/wire.h"
#include "netserve/framing.h"
#include "obs/metrics.h"

namespace fsr::netserve {

struct ConnectionLimits {
  std::size_t max_inflight = kMaxInflightPerConnection;
  std::size_t max_line_bytes = kMaxLineBytes;
  std::size_t max_output_bytes = kMaxOutputBufferBytes;
};

class Connection {
 public:
  /// `submit` hands a parsed request to the owner for service submission;
  /// the owner must later call on_response(slot, response) exactly once
  /// per submitted slot (from the loop thread). Submissions happen in slot
  /// order and only from inside feed()/on_response()/input_closed().
  using Submit = std::function<void(std::uint64_t slot, api::Request request)>;

  Connection(std::uint64_t id, const api::wire::RenderOptions& render,
             const ConnectionLimits& limits, Submit submit);

  std::uint64_t id() const noexcept { return id_; }

  /// Bytes arrived from the socket: frame, parse, submit what can go.
  void feed(std::string_view chunk);

  /// The peer half-closed (EOF on read). Flushes the framer's final
  /// unterminated line, then lets in-flight work finish; the connection
  /// reports finished() once everything is answered and drained.
  void input_closed();

  /// A submitted slot completed. Must be called on the loop thread.
  void on_response(std::uint64_t slot, api::Response response);

  /// Rendered response bytes awaiting the socket. The server sends from
  /// the front and reports progress via consume_output().
  const std::string& output() const noexcept { return output_; }
  void consume_output(std::size_t bytes);

  /// False while backpressure holds (too many unanswered lines, or the
  /// client is not draining output) — the server stops reading then.
  bool wants_read() const noexcept;

  /// True once input is closed, every line is answered, and output is
  /// fully drained: the server can close the socket.
  bool finished() const noexcept;

  /// Unanswered parsed lines right now (slots submitted or queued).
  std::size_t open_slots() const noexcept { return slots_.size(); }
  /// Responses emitted over the connection lifetime (net_close provenance).
  std::uint64_t responses_emitted() const noexcept { return emitted_count_; }
  /// True if any emitted response carried an error (close provenance;
  /// a server has no per-client exit code).
  bool saw_error() const noexcept { return saw_error_; }

 private:
  struct Slot {
    std::uint64_t seq = 0;  // dense over non-blank lines, the output id
    enum class State : std::uint8_t { queued, inflight, done, emitted };
    State state = State::queued;
    bool barrier = false;        // stats/debug: drain earlier slots first
    bool has_client_id = false;  // out-of-order opt-in
    std::uint64_t client_id = 0;
    api::Request request;   // meaningful while queued
    api::Response response;  // meaningful once done
  };

  void accept_line(std::string line, bool oversized);
  void reject(Slot& slot, const std::string& what);  // in-band error answer
  void pump();               // submit eligible queued slots, in slot order
  void emit_ready();         // move done slots into the output buffer
  void emit(Slot& slot);
  void note_backpressure();  // count wants_read() true->false transitions

  const std::uint64_t id_;
  const api::wire::RenderOptions render_;
  const ConnectionLimits limits_;
  const Submit submit_;

  LineFramer framer_;
  std::deque<Slot> slots_;  // open (non-emitted) slots, ascending seq
  std::string output_;
  std::uint64_t line_number_ = 0;   // all input lines, blanks included
  std::uint64_t next_seq_ = 0;      // next non-blank line's slot seq
  std::size_t inflight_ = 0;        // slots submitted, not yet done
  bool input_closed_ = false;
  bool was_readable_ = true;  // previous wants_read(), for stall counting
  std::uint64_t emitted_count_ = 0;
  bool saw_error_ = false;

  obs::Counter& backpressure_stalls_;
};

}  // namespace fsr::netserve

#endif  // FSR_NETSERVE_CONNECTION_H
