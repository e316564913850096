// Clean protocol: unique tags, exhaustive dispatch, every sent tag actively
// handled (also behind a condition), WSEQ commands with both sides, a pure
// observe-only helper, and an exhaustive type table.
#include <string>
#include <vector>

struct NodeMsg {
  enum class Type : char {
    kPing = 'p',
    kPong = 'q',
    kLegacy = 'l',
  };
  Type type;
  long field = 0;
  std::string encode() const;
};

constexpr NodeMsg::Type kAllTypes[] = {
    NodeMsg::Type::kPing,
    NodeMsg::Type::kPong,
    NodeMsg::Type::kLegacy,
};

struct Stats { void incr(const char*); };
struct Chan { void send(const std::string&); };

struct Node {
  Stats stats_;
  Chan ch_;
  bool chained = false;

  void apply(const NodeMsg& m);

  void dispatch(const NodeMsg& m) {
    switch (m.type) {
      case NodeMsg::Type::kPing:
        apply(m);
        break;
      case NodeMsg::Type::kPong:
        if (chained) {
          apply(m);
        } else {
          stats_.incr("unexpected_msgs");
        }
        break;
      case NodeMsg::Type::kLegacy:
        stats_.incr("unexpected_msgs");
        break;
    }
  }

  void send_ping() { ch_.send(NodeMsg{NodeMsg::Type::kPing, 1}.encode()); }

  void send_pong() {
    if (!chained) return;
    ch_.send(NodeMsg{NodeMsg::Type::kPong, 2}.encode());
  }

  // simlint:observe-only
  long depth_estimate() const { return 40; }

  void send_wseq(std::vector<std::string>& out) {
    out.emplace_back("WSEQ");
  }

  void handle_resp(const std::vector<std::string>& argv) {
    if (argv[0] == "WSEQ") {
      apply(NodeMsg{NodeMsg::Type::kPing, 0});
    }
  }
};

int main() {
  Node n;
  n.dispatch(NodeMsg{NodeMsg::Type::kPing, 0});
  n.send_ping();
  n.send_pong();
  n.depth_estimate();
  return 0;
}
