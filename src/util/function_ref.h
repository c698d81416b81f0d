// A non-owning reference to a callable: two pointers, never allocates.
//
// std::function copies its target and heap-allocates once the capture
// outgrows a couple of pointers, so handing a capturing lambda to a
// std::function parameter costs an allocation per call. The thread
// pool's dispatch runs every round of the simulator; FunctionRef lets
// it take any callable by reference instead. The referenced callable
// must outlive every call through the FunctionRef — the usual pattern
// is a lambda argument bound for the duration of one blocking call.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace kcore::util {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f) noexcept  // NOLINT: implicit by design, like std::function
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace kcore::util
