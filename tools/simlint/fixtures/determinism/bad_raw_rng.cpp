// Fixture: every line below must trigger [raw-rng].
#include <cstdlib>
#include <random>

int draw() {
    std::random_device rd;                       // finding
    std::mt19937 gen(rd());                      // finding
    std::uniform_int_distribution<int> d(0, 9);  // finding
    int x = rand();                              // finding
    int y = std::rand();                         // finding
    return d(gen) + x + y;
}
