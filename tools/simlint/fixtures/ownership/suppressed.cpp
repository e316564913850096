// Fixture: every rule violated once, every violation carrying a
// simlint:allow with a reason. Expect no findings and exit 0.
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

struct Completion {
    bool success = false;
    int op = 0;
};

struct Cq {
    std::vector<Completion> poll();
};

struct Fabric {
    void send(int to, int bytes, std::function<void()> cb);
};

struct Node {
    Fabric fabric_;
};

class Channel {
public:
    void set_on_message(std::function<void(std::string)> h);
};

using ChannelPtr = std::shared_ptr<Channel>;

struct Conn {
    // simlint:allow(cycle) fixture: cycle kept on purpose to test suppression
    ChannelPtr channel;
};

void wire(std::shared_ptr<Conn> conn) {
    conn->channel->set_on_message([conn](std::string) {});
}

std::string moved() {
    std::string s = "x";
    auto t = std::string(std::move(s));
    // simlint:allow(use-after-move) fixture: reading moved-from is the point
    return s + t;
}

void drop(Cq* cq) {
    cq->poll(); // simlint:allow(unchecked-status) fixture: depth probe only
}

void install(Channel* ch, Node& node) {
    ch->set_on_message([&node](std::string) {
        // simlint:allow(reentrant-handler) fixture: bootstrap, no delivery in flight
        node.fabric_.send(1, 64, nullptr);
    });
}
