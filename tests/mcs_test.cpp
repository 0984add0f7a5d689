// Unit tests: the MCS framework — app-process call discipline, upcall
// semantics (Section 2 conditions (a), (b), (c)), and system construction.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "helpers.h"

namespace cim::mcs {
namespace {

using test::X;
using test::Y;

// Records the upcall sequence and optionally reads during handling.
struct RecordingHandler final : UpcallHandler {
  AppProcess* app = nullptr;  // set to issue reads inside upcalls
  std::vector<std::string> events;

  void pre_update(VarId var, mcs::DoneFn done) override {
    if (app != nullptr) {
      events.push_back("pre x" + std::to_string(var.value) + "=" +
                       std::to_string(app->read_now(var).value));
    } else {
      events.push_back("pre x" + std::to_string(var.value));
    }
    done();
  }

  void post_update(VarId var, Value value, WriteId,
                   mcs::DoneFn done) override {
    const Value seen = app != nullptr ? app->read_now(var).value : value;
    events.push_back("post x" + std::to_string(var.value) + "=" +
                     std::to_string(seen));
    done();
  }
};

TEST(AppProcess, SerializesQueuedOperations) {
  isc::Federation fed(test::single_system(2, proto::anbkh_protocol()));
  auto& app = fed.system(0).app(0);
  std::vector<int> order;
  app.write(X, 1, [&] { order.push_back(1); });
  app.write(Y, 2, [&] { order.push_back(2); });
  app.read(X, [&](Value) { order.push_back(3); });
  fed.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(app.idle());
  EXPECT_EQ(app.ops_completed(), 3u);
}

TEST(AppProcess, CallbackCanChainFurtherOps) {
  isc::Federation fed(test::single_system(2, proto::anbkh_protocol()));
  auto& app = fed.system(0).app(0);
  Value final_read = -1;
  app.write(X, 1, [&] {
    app.write(X, 2, [&] {
      app.read(X, [&](Value v) { final_read = v; });
    });
  });
  fed.run();
  EXPECT_EQ(final_read, 2);
}

TEST(Upcalls, PrePostSequenceAndValues) {
  // Attach a recording handler (with reads) to a non-ISP MCS-process and
  // verify conditions (b) and (c): the pre read returns the previous value s
  // and the post read returns the new value v.
  isc::Federation fed(test::single_system(2, proto::anbkh_protocol()));
  auto& observer_mcs = fed.system(0).mcs(1);
  RecordingHandler handler;
  handler.app = &fed.system(0).app(1);
  observer_mcs.attach_upcall_handler(&handler);
  observer_mcs.set_pre_update_enabled(true);

  fed.system(0).app(0).write(X, 7);
  fed.run();
  fed.system(0).app(0).write(X, 8);
  fed.run();

  ASSERT_EQ(handler.events.size(), 4u);
  EXPECT_EQ(handler.events[0], "pre x0=0");   // s = init
  EXPECT_EQ(handler.events[1], "post x0=7");  // v
  EXPECT_EQ(handler.events[2], "pre x0=7");   // s = previous value
  EXPECT_EQ(handler.events[3], "post x0=8");
}

TEST(Upcalls, DisabledPreUpdateSkipsPre) {
  isc::Federation fed(test::single_system(2, proto::anbkh_protocol()));
  auto& observer_mcs = fed.system(0).mcs(1);
  RecordingHandler handler;
  observer_mcs.attach_upcall_handler(&handler);
  observer_mcs.set_pre_update_enabled(false);

  fed.system(0).app(0).write(X, 7);
  fed.run();
  ASSERT_EQ(handler.events.size(), 1u);
  EXPECT_EQ(handler.events[0], "post x0=7");
}

TEST(Upcalls, OwnWritesGenerateNoUpcalls) {
  isc::Federation fed(test::single_system(2, proto::anbkh_protocol()));
  auto& observer_mcs = fed.system(0).mcs(1);
  RecordingHandler handler;
  observer_mcs.attach_upcall_handler(&handler);
  observer_mcs.set_pre_update_enabled(true);

  fed.system(0).app(1).write(X, 5);  // write by the attached process itself
  fed.run();
  EXPECT_TRUE(handler.events.empty());

  fed.system(0).app(0).write(Y, 6);  // write by a peer: upcalls fire
  fed.run();
  EXPECT_EQ(handler.events.size(), 2u);
}

// Condition (a): a write call arriving while an upcall is in flight is
// deferred until the upcall dance completes.
struct DeferringHandler final : UpcallHandler {
  AppProcess* writer = nullptr;
  McsProcess* mcs = nullptr;
  Value observed_after_write_call = -1;
  bool wrote = false;

  void pre_update(VarId, mcs::DoneFn done) override { done(); }

  void post_update(VarId var, Value, WriteId,
                   mcs::DoneFn done) override {
    if (!wrote) {
      wrote = true;
      // Issue a write *during* the upcall: it must be deferred, so a read
      // issued right after still sees the pipeline's value, not ours.
      writer->write(VarId{99}, 1234);
      EXPECT_TRUE(mcs->upcall_in_flight());
      observed_after_write_call = writer->read_now(var).value;
    }
    done();
  }
};

TEST(Upcalls, WritesDeferredDuringUpcall) {
  isc::Federation fed(test::single_system(2, proto::anbkh_protocol()));
  auto& observer_mcs = fed.system(0).mcs(1);
  DeferringHandler handler;
  handler.writer = &fed.system(0).app(1);
  handler.mcs = &observer_mcs;
  observer_mcs.attach_upcall_handler(&handler);
  observer_mcs.set_pre_update_enabled(false);

  fed.system(0).app(0).write(X, 7);
  fed.run();
  EXPECT_TRUE(handler.wrote);
  EXPECT_EQ(handler.observed_after_write_call, 7);  // condition (c) held

  // After the dance the deferred write must have completed.
  Value deferred = -1;
  fed.system(0).app(1).read(VarId{99}, [&](Value v) { deferred = v; });
  fed.run();
  EXPECT_EQ(deferred, 1234);
}

TEST(System, IsIspSlotClassification) {
  sim::Simulator sim;
  net::Fabric fabric(sim, 1);
  chk::Recorder rec;
  SystemConfig sc;
  sc.id = SystemId{3};
  sc.num_app_processes = 2;
  sc.protocol = proto::anbkh_protocol();
  System sys(sim, fabric, rec, std::move(sc));
  const ProcId isp = sys.add_isp_slot();
  EXPECT_EQ(isp.index, 2);
  sys.finalize();
  EXPECT_EQ(sys.num_processes(), 3);
  EXPECT_FALSE(sys.is_isp_slot(0));
  EXPECT_FALSE(sys.is_isp_slot(1));
  EXPECT_TRUE(sys.is_isp_slot(2));
  EXPECT_TRUE(sys.app(2).is_isp());
  EXPECT_FALSE(sys.app(0).is_isp());
}

TEST(System, AddIspSlotAfterFinalizeThrows) {
  sim::Simulator sim;
  net::Fabric fabric(sim, 1);
  chk::Recorder rec;
  SystemConfig sc;
  sc.id = SystemId{0};
  sc.num_app_processes = 1;
  sc.protocol = proto::anbkh_protocol();
  System sys(sim, fabric, rec, std::move(sc));
  sys.finalize();
  EXPECT_THROW(sys.add_isp_slot(), InvariantViolation);
  EXPECT_THROW(sys.finalize(), InvariantViolation);
}

TEST(System, MeshHasQuadraticChannels) {
  sim::Simulator sim;
  net::Fabric fabric(sim, 1);
  chk::Recorder rec;
  SystemConfig sc;
  sc.id = SystemId{0};
  sc.num_app_processes = 4;
  sc.protocol = proto::anbkh_protocol();
  System sys(sim, fabric, rec, std::move(sc));
  sys.finalize();
  // 4 processes -> 4*3 unidirectional channels; a write broadcasts on 3.
  sys.app(0).write(X, 1);
  sim.run();
  EXPECT_EQ(fabric.total_messages(), 3u);
}

TEST(Recording, OperationsCarryInvocationAndResponseTimes) {
  isc::Federation fed(test::single_system(2, proto::anbkh_protocol()));
  fed.system(0).app(0).write(X, 1);
  fed.run();
  auto h = fed.federation_history();
  ASSERT_EQ(h.size(), 1u);
  EXPECT_LE(h.invoked(0), h.responded(0));
}

}  // namespace
}  // namespace cim::mcs
