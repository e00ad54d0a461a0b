#include "common/parallel_for.hpp"

#include <atomic>
#include <stdexcept>

namespace extradeep {

namespace {

/// Release/acquire publication: the hook struct's fields must be visible to
/// worker threads that observe the pointer.
std::atomic<const TaskContextHook*> g_task_context_hook{nullptr};

}  // namespace

void set_task_context_hook(const TaskContextHook* hook) {
    g_task_context_hook.store(hook, std::memory_order_release);
}

const TaskContextHook* task_context_hook() {
    return g_task_context_hook.load(std::memory_order_acquire);
}

int resolve_num_threads(int requested) {
    if (requested >= 1) {
        return requested;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads) {
    const int threads = resolve_num_threads(num_threads);
    workers_.reserve(static_cast<std::size_t>(threads - 1));
    for (int i = 1; i < threads; ++i) {
        workers_.emplace_back([this, i] { worker_loop(i); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    start_cv_.notify_all();
    for (auto& w : workers_) {
        w.join();
    }
}

void ThreadPool::record_error(int chunk_index, std::exception_ptr error) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (error_chunk_ < 0 || chunk_index < error_chunk_) {
        error_chunk_ = chunk_index;
        error_ = std::move(error);
    }
}

void ThreadPool::run_chunk(int chunk_index) {
    const std::size_t threads = static_cast<std::size_t>(thread_count());
    const std::size_t begin =
        job_count_ * static_cast<std::size_t>(chunk_index) / threads;
    const std::size_t end =
        job_count_ * (static_cast<std::size_t>(chunk_index) + 1) / threads;
    if (begin >= end) {
        return;
    }
    const TaskContextHook* hook = task_context_hook();
    std::uint64_t previous = 0;
    if (hook != nullptr) {
        previous = hook->install(job_context_);
    }
    try {
        (*job_body_)(chunk_index, begin, end);
    } catch (...) {
        record_error(chunk_index, std::current_exception());
    }
    if (hook != nullptr) {
        hook->restore(previous);
    }
}

void ThreadPool::run_task(Task task) {
    const TaskContextHook* hook = task_context_hook();
    std::uint64_t previous = 0;
    if (hook != nullptr) {
        previous = hook->install(task.context);
    }
    // Deliberately no try/catch: detached tasks have no join point to
    // rethrow at, so an escaping exception terminates (documented contract).
    task.body();
    if (hook != nullptr) {
        hook->restore(previous);
    }
}

void ThreadPool::worker_loop(int chunk_index) {
    std::uint64_t seen_generation = 0;
    while (true) {
        Task task;
        bool have_task = false;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            start_cv_.wait(lock, [&] {
                return stop_ || generation_ != seen_generation ||
                       !tasks_.empty();
            });
            if (stop_) {
                return;
            }
            if (generation_ != seen_generation) {
                // A fork-join job takes priority: the caller is blocked on
                // its barrier, queued tasks are not blocked on anything.
                seen_generation = generation_;
            } else {
                task = std::move(tasks_.front());
                tasks_.pop_front();
                have_task = true;
            }
        }
        if (have_task) {
            run_task(std::move(task));
            continue;
        }
        run_chunk(chunk_index);
        bool last = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            last = --pending_ == 0;
        }
        if (last) {
            done_cv_.notify_all();
        }
    }
}

void ThreadPool::submit(std::function<void()> task) {
    if (workers_.empty()) {
        throw std::logic_error(
            "ThreadPool::submit: pool has no background workers "
            "(thread_count() must be >= 2)");
    }
    const TaskContextHook* hook = task_context_hook();
    Task t;
    t.body = std::move(task);
    t.context = hook != nullptr ? hook->capture() : 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push_back(std::move(t));
    }
    start_cv_.notify_one();
}

std::size_t ThreadPool::queued_tasks() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return tasks_.size();
}

void ThreadPool::parallel_for(
    std::size_t count,
    const std::function<void(int, std::size_t, std::size_t)>& body) {
    if (count == 0) {
        return;
    }
    if (workers_.empty()) {
        // Single-threaded pool: run inline, preserving the chunk interface.
        body(0, 0, count);
        return;
    }
    const TaskContextHook* hook = task_context_hook();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_count_ = count;
        job_context_ = hook != nullptr ? hook->capture() : 0;
        job_body_ = &body;
        error_chunk_ = -1;
        error_ = nullptr;
        pending_ = static_cast<int>(workers_.size());
        ++generation_;
    }
    start_cv_.notify_all();
    run_chunk(0);  // the caller is chunk 0
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, [&] { return pending_ == 0; });
        job_body_ = nullptr;
        if (error_) {
            std::exception_ptr err = std::move(error_);
            error_ = nullptr;
            lock.unlock();
            std::rethrow_exception(err);
        }
    }
}

}  // namespace extradeep
