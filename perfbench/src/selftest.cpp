// Tests of the benchmark's own logic: the summary helpers and the seeded
// generator.  Exit code 0 when every check holds.
#include <cstdio>
#include <set>
#include <vector>

#include "stats.hpp"
#include "workload.hpp"

using namespace perfbench;
using yhccl::coll::CollKind;

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

void test_quantile_and_ratios() {
  using V = std::vector<double>;
  expect(quantile(V{}, 0.5) == 0, "quantile of an empty sample is 0");
  expect(quantile(V{7}, 0.9) == 7, "quantile of one sample is that sample");
  expect(median(V{3, 1, 2}) == 2, "median of an odd sample");
  expect(median(V{4, 1, 3, 2}) == 2.5, "median interpolates an even sample");
  expect(median(std::vector<float>{1.5f, 0.5f}) == 1.0,
         "quantile takes single-precision samples");
  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) v.push_back(100 - i);
  expect(quantile(v, 0.9) == 90, "p90 of 0..100 is 90");
  expect(quantile(v, 0) == 0 && quantile(v, 1) == 100, "p0 and p100");
  expect(quantile(V{1, 2}, 0.25) == 1.25, "quantile interpolates linearly");
  expect(quiet_cost(v) == 10 && quiet_rate(v) == 90,
         "quiet summaries take the decile on the fast side");
  expect(quiet_cost(V{1, 1, 9, 9, 9, 9, 9, 9, 9, 9, 9}) == 1 &&
             quiet_rate(V{1, 1, 1, 1, 1, 1, 1, 1, 1, 9, 9}) == 9,
         "slow segments leave the quiet summaries alone while a tenth is fast");
  expect(ratio(3, 4) == 0.75, "ratio");
  expect(ratio(3, 0) == 0, "ratio without a denominator is 0");
  expect(overhead(1.1, 1.0) > 0.0999 && overhead(1.1, 1.0) < 0.1001,
         "overhead is the relative change");
  expect(overhead(5, 0) == 0, "overhead without a base is 0");
}

void test_rng() {
  // splitmix64's published first output for seed 0.
  Rng rng(0);
  expect(rng.next() == 0xe220a8397b1dcdafull, "splitmix64 known answer");
}

void test_schedule() {
  const Schedule a(Workload::allreduce_small, 42);
  const Schedule b(Workload::allreduce_small, 42);
  const Schedule c(Workload::allreduce_small, 43);
  bool same = true;
  bool differs = false;
  std::set<std::size_t> sizes;
  for (std::uint64_t op = 0; op < Schedule::kSeqLen; ++op) {
    const Call x = a.call(op, 0);
    same = same && x.count == b.call(op, 0).count;
    differs = differs || x.count != c.call(op, 0).count;
    sizes.insert(message_bytes(x));
    expect(x.kind == CollKind::allreduce, "allreduce-small issues allreduce");
  }
  expect(same, "same seed gives the same size sequence");
  expect(differs, "another seed gives another size sequence");
  expect(sizes == std::set<std::size_t>(std::begin(kSmallBytes),
                                        std::end(kSmallBytes)),
         "the size mix covers exactly the five sizes");
  std::size_t middle = 0;
  for (std::uint64_t op = 0; op < Schedule::kSeqLen; ++op)
    middle += message_bytes(a.call(op, 0)) == 4096 ? 1 : 0;
  const double share = static_cast<double>(middle) / Schedule::kSeqLen;
  expect(share > 0.32 && share < 0.35, "4 KB is a third of the mix");
  expect(a.call(5, 0).count == a.call(5 + Schedule::kSeqLen, 0).count,
         "the sequence repeats with period kSeqLen");

  const Schedule s1(Workload::step_process, 7);
  const Schedule s2(Workload::step_process, 7);
  const Schedule s3(Workload::step_process, 8);
  bool roots_same = true;
  bool roots_differ = false;
  std::set<int> roots;
  for (std::uint64_t op = 0; op < 4096; ++op) {
    const Call x = s1.call(op, 0);
    roots_same = roots_same && x.root == s2.call(op, 0).root;
    roots_differ = roots_differ || x.root != s3.call(op, 0).root;
    roots.insert(x.root);
    for (int j = 1; j < s1.calls_per_op(); ++j)
      expect(s1.call(op, j).count == s3.call(op, j).count &&
                 s1.call(op, j).kind == s3.call(op, j).kind,
             "the seed changes only the broadcast root of a step");
  }
  expect(roots_same, "same seed gives the same root sequence");
  expect(roots_differ, "another seed gives another root sequence");
  expect(roots == std::set<int>{0, 1, 2, 3}, "roots cover every rank");
  expect(s1.call(0, 0).kind == CollKind::broadcast &&
             s1.call(0, 1).kind == CollKind::allgather &&
             s1.call(0, 2).kind == CollKind::reduce_scatter &&
             s1.call(0, 3).kind == CollKind::allreduce,
         "a step is broadcast, allgather, reduce_scatter, allreduce");
  expect(message_bytes(s1.call(0, 0)) == (64u << 10) &&
             message_bytes(s1.call(0, 1)) == (16u << 10) &&
             message_bytes(s1.call(0, 2)) == kRanks * (256u << 10) &&
             message_bytes(s1.call(0, 3)) == 4,
         "step message sizes");

  const Schedule l1(Workload::allreduce_large, 1);
  const Schedule l2(Workload::allreduce_large, 2);
  expect(message_bytes(l1.call(3, 0)) == kLargeBytes &&
             l1.call(3, 0).count == l2.call(9, 0).count,
         "allreduce-large is seed-independent 32 MB");
  expect(a.max_input_elems() == 65536 / 4 && a.max_output_elems() == 65536 / 4,
         "allreduce-small buffers hold the largest size");
  expect(s1.max_input_elems() == kRanks * (256u << 10) / 4 &&
             s1.max_output_elems() == (256u << 10) / 4,
         "step buffers hold the reduce_scatter input and block");
}

void test_inputs_sum_exactly() {
  // f32 represents every sum of kRanks inputs exactly, in any order.
  for (std::size_t j = 0; j < 1000; ++j) {
    expect(input_value(1, j) == input_value(1, j + kValuePeriod) &&
               expected_sum(j) == expected_sum(j + kValuePeriod),
           "values repeat with period kValuePeriod");
    float fwd = 0;
    float rev = 0;
    int exact = 0;
    for (int r = 0; r < kRanks; ++r) {
      fwd += input_value(r, j);
      rev += input_value(kRanks - 1 - r, j);
      exact += static_cast<int>(input_value(r, j));
    }
    expect(fwd == rev && fwd == static_cast<float>(exact) &&
               expected_sum(j) == fwd,
           "input sums are exact");
  }
}

}  // namespace

int main() {
  test_quantile_and_ratios();
  test_rng();
  test_schedule();
  test_inputs_sum_exactly();
  if (g_failures == 0) std::printf("perfbench self-test: all checks pass\n");
  return g_failures == 0 ? 0 : 1;
}
