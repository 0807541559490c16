package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import repro.core.{Explain, Explanation, Placement, Question, SchemaAlts, Trace}
import repro.nrab.{Eval, TableAccess}
import repro.scenarios.{Scenario, ScenarioResult}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.{Failure, Success, Try}

/** Why-not benchmark: explains a workload's questions end to end
  * through ``Scenario.runAll()`` in a closed loop with one client (the
  * next question is asked when the previous answer is back).
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  * }}}
  *
  * With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
  * it times each layer from outside and writes the spans to ``--out``.
  * Stdout ends with one JSON line: correct / attempted / failed / metrics.
  */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean, out: String)

  /** Set-ups per untraced run; ``setup_s`` is their median. */
  val SetupRuns = 3

  /** Passes after the cold one that warm the JIT up and are not timed;
    * the first of them still runs well above the steady pass time.
    */
  val WarmUpPasses = 2

  /** Warm passes per untraced run at least; the per-question statistics
    * and ``corpus_s`` are medians over them.
    */
  val MinWarmPasses = 3

  def main(args: Array[String]): Unit = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def arg(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val o = Opts(arg("workload"), arg("seed").toLong, arg("seconds").toDouble,
      arg("trace") == "1", kv.getOrElse("out", "."))
    val wl = Workloads.byName(o.workload)

    val spark = SparkSession.builder
      .master(s"local[${Env.cores}]")
      .appName(s"perfbench-${wl.name}")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try {
      val run = new Run(spark, wl, o)
      val (record, result) = if (o.trace) run.traced() else run.plain()
      println(Json(record))
      println(Json(result))
    } finally spark.stop()
  }
}

/** Process-level facts recorded next to every result. */
object Env {
  val cores: Int = math.min(4, Runtime.getRuntime.availableProcessors)

  def apply(spark: SparkSession, wl: Workload, seed: Long): Obj = {
    val conf = spark.conf
    Obj(
      "workload" -> wl.name, "seed" -> seed, "scale" -> Obj(wl.scale: _*),
      "questions" -> wl.questions, "client" -> "closed loop, 1 client, 1 question at a time",
      "master" -> spark.sparkContext.master,
      "spark.sql.shuffle.partitions" -> conf.get("spark.sql.shuffle.partitions"),
      "spark.sql.autoBroadcastJoinThreshold" -> conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "spark.sql.adaptive.enabled" -> conf.get("spark.sql.adaptive.enabled"),
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1L << 20),
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "spark_version" -> spark.version,
      "scala_version" -> scala.util.Properties.versionNumberString,
      "java_version" -> System.getProperty("java.version"),
      "java_vm" -> System.getProperty("java.vm.name"),
      "source_commit" -> sys.props.getOrElse("perfbench.commit", ""),
      "source_digest" -> sys.props.getOrElse("perfbench.digest", ""),
      // exported by the test setup but read by nothing; recorded to tell runs apart
      "SPARK_GRAFT_CPUS" -> sys.env.getOrElse("SPARK_GRAFT_CPUS", ""))
  }

  def cpuNs: Long = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime

  def gcMs: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)
  def resetHeapPeak(): Unit = heapPools.foreach(_.resetPeakUsage())
  def heapPeakMb: Double = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0
}

/** One question asked once: its latency and, if it went wrong, why. */
final case class Answer(question: String, seconds: Double, error: Option[String])

/** One pass over the workload's questions. */
final case class Pass(answers: Seq[Answer], cpuSeconds: Double) {
  def seconds: Double = answers.map(_.seconds).sum
}

final class Run(spark: SparkSession, wl: Workload, o: Main.Opts) {

  private def now = System.nanoTime()
  private def since(t0: Long) = (now - t0) / 1e9

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def metric(v: Double, unit: String) = Obj("value" -> v, "unit" -> unit)

  private def cachedMb: Double =
    spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum / 1048576.0

  /** Generate the tables, build the scenarios, and materialise the caches
    * of the tables the scenarios' queries read.
    */
  private def setUp(span: (String, => Any) => Any): (Generated, Seq[Scenario]) = {
    var g: Generated = null
    span("data.generate", { g = wl.generate(spark, o.seed) })
    var scenarios: Seq[Scenario] = Nil
    span("data.scenarios", { scenarios = g.scenarios() })
    val read = scenarios.flatMap(_.question.query.allOps.collect { case TableAccess(_, n) => n }).distinct
    span("data.materialize", read.foreach(g.tables(_).count()))
    (g, scenarios)
  }

  /** Differences between a result and the scenario's published expectations. */
  private def mismatches(s: Scenario, r: ScenarioResult): Seq[String] = Seq(
    Option.when(r.wn != s.expectedWn)(s"WN++ ${r.wn} != ${s.expectedWn}"),
    Option.when(r.rpNoSa != s.expectedRpNoSa)(s"RPnoSA ${r.rpNoSa} != ${s.expectedRpNoSa}"),
    Option.when(r.rp != s.expectedRp)(s"RP ${r.rp} != ${s.expectedRp}"),
    Option.when(s.gold.flatMap(r.goldPosition) != s.goldRank)(
      s"gold rank ${s.gold.flatMap(r.goldPosition)} != ${s.goldRank}")).flatten

  private def ask(s: Scenario): Answer = {
    val t0 = now
    val r = Try(s.runAll())
    val dt = since(t0)
    val err = r match {
      case Success(res) => Some(mismatches(s, res)).filter(_.nonEmpty).map(_.mkString("; "))
      case Failure(e) => Some(e.toString)
    }
    Answer(s.name, dt, err)
  }

  private def pass(scenarios: Seq[Scenario], askOne: Scenario => Answer): Pass = {
    val c0 = Env.cpuNs
    val answers = scenarios.map(askOne)
    Pass(answers, (Env.cpuNs - c0) / 1e9)
  }

  private def failures(answers: Seq[Answer]) =
    answers.flatMap(a => a.error.map(e => Obj("question" -> a.question, "error" -> e)))

  private def result(answers: Seq[Answer], metrics: Obj): Obj = {
    val failed = answers.count(_.error.nonEmpty)
    Obj("correct" -> (failed == 0), "attempted" -> answers.size, "failed" -> failed, "metrics" -> metrics)
  }

  /** Warm passes until ``o.seconds`` passed and at least ``MinWarmPasses`` ran. */
  private def warmPasses(scenarios: Seq[Scenario]): Seq[Pass] = {
    val t0 = now
    val out = mutable.ArrayBuffer.empty[Pass]
    while (out.size < Main.MinWarmPasses || since(t0) < o.seconds) out += pass(scenarios, ask)
    out.toSeq
  }

  /** Untraced run: the end-to-end metrics. */
  def plain(): (Obj, Obj) = {
    def timedSetUp() = {
      spark.catalog.clearCache()
      val t0 = now
      val (_, scenarios) = setUp((_, f) => f)
      (since(t0), scenarios)
    }
    // the cold pass is the first pass of the JVM; it and the warm passes
    // use the data of the last set-up, so no warm pass plans new tables
    val setups = Seq.fill(Main.SetupRuns)(timedSetUp())
    val scenarios = setups.last._2
    val cold = pass(scenarios, ask)
    val warmUp = Seq.fill(Main.WarmUpPasses)(pass(scenarios, ask))
    val warm = warmPasses(scenarios)

    // the tail is the highest percentile with at least 10 samples beyond
    // it; below 21 samples that is no higher than the median, so the
    // maximum stands in
    val samples = warm.flatMap(_.answers.map(_.seconds)).sorted
    val n = samples.size
    val (tail, tailPct) =
      if (n > 20) (samples(n - 11), 100.0 * (n - 10) / n) else (samples.last, 100.0)
    val all = cold.answers ++ (warmUp ++ warm).flatMap(_.answers)
    val failedFrac = all.count(_.error.nonEmpty).toDouble / all.size

    val metrics = Obj(
      "setup_s" -> metric(median(setups.map(_._1)), "s"),
      "corpus_s" -> metric(median(warm.map(_.seconds)), "s"),
      "cpu_s" -> metric(median(warm.map(_.cpuSeconds)), "s"),
      "cache_mb" -> metric(cachedMb, "MB"))
    val record = Obj(
      "env" -> Env(spark, wl, o.seed),
      "setup_runs_s" -> setups.map(_._1),
      // reported, not bounded: their spread over seeds exceeds any bound
      // the benchmark may set (see CHANGES.md)
      "cold_pass_s" -> metric(cold.seconds, "s"),
      "question_p50_s" -> metric(median(samples), "s"),
      "question_tail_s" -> metric(tail, "s"),
      "warm_up_pass_s" -> warmUp.map(_.seconds),
      "warm_pass_s" -> warm.map(_.seconds),
      "question_tail_percentile" -> tailPct,
      "question_tail_samples" -> n,
      "failed_frac" -> failedFrac,
      "failures" -> failures(all),
      "questions" -> scenarios.map { s =>
        val mine = warm.flatMap(_.answers).filter(_.question == s.name).map(_.seconds)
        Obj("question" -> s.name, "cold_s" -> cold.answers.find(_.question == s.name).map(_.seconds),
          "warm_median_s" -> median(mine))
      })
    (record, result(all, metrics))
  }

  /** Traced run: per-layer metrics, spans and the per-question table. */
  def traced(): (Obj, Obj) = {
    val sc = spark.sparkContext
    val spans = new Spans(sc)
    sc.addSparkListener(spans.sparkListener)
    spark.listenerManager.register(spans.queryListener)
    val gc0 = Env.gcMs
    Env.resetHeapPeak()

    val (g, scenarios) = setUp((name, f) => spans(name, "")(f))
    val setupCachedMb = cachedMb

    val cold = pass(scenarios, ask)
    val untraced = mutable.ArrayBuffer.empty[Pass]
    val tracedPasses = mutable.ArrayBuffer.empty[(Pass, Range)]
    val saStats = mutable.ArrayBuffer.empty[SaStat]
    // untraced passes before and after each traced one, so JVM warm-up
    // does not favour either side of tracing.overhead_frac
    val t0 = now
    untraced += pass(scenarios, ask)
    while (tracedPasses.isEmpty || since(t0) < o.seconds) {
      val from = spans.nextSpanId
      val p = pass(scenarios, s => askTraced(s, spans, saStats))
      tracedPasses += ((p, from until spans.nextSpanId))
      untraced += pass(scenarios, ask)
    }
    val census = spans("sa.census", "") {
      g.census().map { s =>
        val q = s.question
        s.name -> SchemaAlts.enumerate(q.query, q.altGroups, q.tableSchemas).size
      }
    }
    val gcSeconds = (Env.gcMs - gc0) / 1000.0
    val heapPeak = Env.heapPeakMb
    val all = spans.finished
    val untracedCorpus = median(untraced.map(_.seconds).toSeq)

    def layerMetrics(ids: Range): Seq[(String, Double, String)] = {
      val ss = all.filter(s => ids.contains(s.id))
      val stats = saStats.filter(s => ids.contains(s.spanId)).toSeq
      def secs(name: String) = ss.filter(_.name == name).map(_.seconds).sum
      def counts(name: String) = {
        val c = new SparkCounts; ss.filter(_.name == name).foreach(s => c += s.counts); c
      }
      val witness = counts("explain.witness")
      val approach = Seq("rp", "rpnosa", "wn").flatMap { a =>
        val c = counts(s"approach.$a")
        Seq((s"approach.${a}_s", secs(s"approach.$a"), "s"),
          (s"approach.$a.jobs", c.jobs.toDouble, "count"),
          (s"approach.$a.tasks", c.tasks.toDouble, "count"),
          (s"approach.$a.shuffle_write_mb", c.shuffleWriteBytes / 1048576.0, "MB"))
      }
      val decomposed = Seq("sa.enumerate", "placement.backtrace", "trace.build",
        "explain.witness", "explain.rank").map(secs).sum
      val tracedCorpus = Seq("rp", "rpnosa", "wn").map(a => secs(s"approach.$a")).sum
      Seq(
        ("sa.count", stats.size.toDouble, "count"),
        ("sa.enumerate_s", secs("sa.enumerate"), "s"),
        ("placement.backtrace_s", secs("placement.backtrace"), "s"),
        ("explain.useful_sa_frac", stats.count(_.useful).toDouble / math.max(1, stats.size), "ratio"),
        ("trace.build_s", secs("trace.build"), "s"),
        ("trace.plan_columns", stats.map(_.columns).sum.toDouble, "count"),
        ("trace.plan_exchanges", witness.exchanges.toDouble, "count"),
        ("trace.plan_windows", witness.windows.toDouble, "count"),
        ("trace.plan_optimize_s", witness.planningMs / 1000.0, "s"),
        ("explain.witness_s", secs("explain.witness"), "s"),
        ("explain.spark_jobs", witness.jobs.toDouble, "count"),
        ("explain.spark_tasks", witness.tasks.toDouble, "count"),
        ("explain.shuffle_write_mb", witness.shuffleWriteBytes / 1048576.0, "MB"),
        ("explain.executor_cpu_s", witness.executorCpuNs / 1e9, "s"),
        ("explain.spill_mb", witness.spillBytes / 1048576.0, "MB")) ++
        approach ++ Seq(
        ("approach.rp_unattributed_s", secs("approach.rp") - decomposed, "s"),
        ("nrab.original_s", secs("nrab.original"), "s"),
        ("nrab.trace_overhead_x", secs("approach.rp") / math.max(secs("nrab.original"), 1e-9), "x"),
        ("tracing.overhead_frac", tracedCorpus / untracedCorpus - 1.0, "ratio"))
    }

    val perPass = tracedPasses.map { case (_, ids) => layerMetrics(ids) }
    def setupSeconds(name: String) = all.filter(_.name == name).map(_.seconds).sum
    val metrics = Obj((
      Seq(
        "data.generate_s" -> metric(setupSeconds("data.generate"), "s"),
        "data.materialize_s" -> metric(setupSeconds("data.materialize"), "s"),
        "data.cached_mb" -> metric(setupCachedMb, "MB")) ++
      perPass.head.indices.map { i =>
        val (name, _, unit) = perPass.head(i)
        name -> metric(median(perPass.map(_(i)._2).toSeq), unit)
      } ++ Seq(
        "jvm.gc_s" -> metric(gcSeconds, "s"),
        "jvm.heap_peak_mb" -> metric(heapPeak, "MB"))): _*)

    val lastIds = tracedPasses.last._2
    val perQuestion = scenarios.map { s =>
      val ss = all.filter(x => lastIds.contains(x.id) && x.question == s.name)
      def one(name: String) = ss.filter(_.name == name)
      val witness = new SparkCounts
      one("explain.witness").foreach(x => witness += x.counts)
      val rp = one("approach.rp")
      val rpS = rp.map(_.seconds).sum
      val origS = one("nrab.original").map(_.seconds).sum
      Obj("question" -> s.name,
        "sas" -> saStats.count(x => lastIds.contains(x.spanId) && x.question == s.name),
        "plan_exchanges" -> witness.exchanges, "plan_windows" -> witness.windows,
        "rp_jobs" -> rp.map(_.counts.jobs).sum, "rp_tasks" -> rp.map(_.counts.tasks).sum,
        "rpnosa_jobs" -> one("approach.rpnosa").map(_.counts.jobs).sum,
        "wn_jobs" -> one("approach.wn").map(_.counts.jobs).sum,
        "rp_s" -> rpS, "original_s" -> origS, "trace_overhead_x" -> rpS / math.max(origS, 1e-9))
    }
    val selfByLayer = all.groupBy(_.name).toSeq.sortBy(_._1).map { case (name, ss) =>
      name -> ss.map(Spans.selfSeconds(_, all)).sum
    }

    val answers = cold.answers ++ untraced.flatMap(_.answers) ++ tracedPasses.flatMap(_._1.answers)
    val record = Obj(
      "env" -> Env(spark, wl, o.seed),
      "traced_passes" -> tracedPasses.size,
      "untraced_corpus_s" -> untracedCorpus,
      "failures" -> failures(answers.toSeq),
      "per_question" -> perQuestion,
      "sa_census" -> Obj(census: _*),
      "self_time_s" -> Obj(selfByLayer: _*))
    val t0Ns = all.headOption.map(_.startNs).getOrElse(0L)
    val spanJson = all.map { s =>
      Obj("id" -> s.id, "name" -> s.name, "parent" -> s.parent, "question" -> s.question,
        "start_ms" -> (s.startNs - t0Ns) / 1e6, "end_ms" -> (s.endNs - t0Ns) / 1e6,
        "self_ms" -> Spans.selfSeconds(s, all) * 1000, "jobs" -> s.counts.jobs,
        "tasks" -> s.counts.tasks, "queries" -> s.counts.queries,
        "exchanges" -> s.counts.exchanges, "windows" -> s.counts.windows)
    }
    val file = Paths.get(o.out, s"trace-${wl.name}-seed${o.seed}.json")
    Files.createDirectories(file.getParent)
    Files.write(file, Json(Obj(
      "record" -> record, "metrics" -> metrics, "spans" -> spanJson)).getBytes(StandardCharsets.UTF_8))
    (Obj((record.fields :+ ("trace_file" -> file.toString)): _*), result(answers.toSeq, metrics))
  }

  /** What one traced schema alternative yielded. */
  final case class SaStat(spanId: Int, question: String, columns: Int, useful: Boolean)

  /** One question with every layer timed from outside: the three approaches
    * as ``runAll`` calls them, then RP again decomposed into Alg. 1's steps
    * (which must give exactly ``Explain.rp``'s explanations), the original
    * query, and for the crime questions Why-Not and Conseil.
    */
  private def askTraced(s: Scenario, spans: Spans, saStats: mutable.ArrayBuffer[SaStat]): Answer = {
    val q = s.question
    val name = s.name
    val t0 = now
    val r = Try(spans("question", name) {
      val wn = spans("approach.wn", name)(s.runWn())
      val rpNoSa = spans("approach.rpnosa", name)(s.runRpNoSa())
      val rp = spans("approach.rp", name)(s.runRp())
      val decomposed = spans("rp.decomposed", name)(decomposedRp(q, name, spans, saStats))
      spans("nrab.original", name)(Eval(q.query, q.tables).count())
      val whyNot = s.expectedWhyNot.map(_ => spans("approach.whynot", name)(s.runWhyNot()))
      val conseil = s.expectedConseil.map(_ => spans("approach.conseil", name)(s.runConseil()))
      mismatches(s, ScenarioResult(name, wn, rpNoSa.map(_.labels), rp.map(_.labels))) ++
        Option.when(decomposed != rp)(s"decomposed RP $decomposed != Explain.rp $rp") ++
        Option.when(whyNot.exists(_ != s.expectedWhyNot))(s"Why-Not $whyNot != ${s.expectedWhyNot}") ++
        Option.when(conseil.exists(_ != s.expectedConseil))(s"Conseil $conseil != ${s.expectedConseil}")
    })
    val dt = since(t0)
    Answer(name, dt, r match {
      case Success(errs) => Some(errs).filter(_.nonEmpty).map(_.mkString("; "))
      case Failure(e) => Some(e.toString)
    })
  }

  /** ``Explain.rp`` step by step, mirroring ``Explain.run``. */
  private def decomposedRp(q: Question, name: String, spans: Spans,
                           saStats: mutable.ArrayBuffer[SaStat]): Seq[Explanation] = {
    val ts = q.tableSchemas
    val sas = spans("sa.enumerate", name)(SchemaAlts.enumerate(q.query, q.altGroups, ts))
    val found = mutable.Map.empty[Set[Int], Explanation]
    sas.foreach { sa =>
      val placement = spans("placement.backtrace", name)(Placement.backtrace(sa.query, q.nip, ts))
      val traced = spans("trace.build", name)(Trace.trace(sa.query, q.tables, placement, ts))
      val witnessSpan = spans.nextSpanId
      val failSets = spans("explain.witness", name)(Explain.witnessFailSets(traced))
      var useful = false
      failSets.foreach { case (failSet, n) =>
        val ops = sa.sr ++ failSet
        if (ops.nonEmpty) {
          useful = true
          found(ops) = found.get(ops) match {
            case Some(prev) => prev.copy(saIndex = math.min(prev.saIndex, sa.index),
                                         witnesses = prev.witnesses + n)
            case None => Explanation(ops, ops.map(Explain.labelOf(q.query, _)), sa.index, n)
          }
        }
      }
      saStats += SaStat(witnessSpan, name, traced.df.columns.length, useful)
    }
    spans("explain.rank", name)(Explain.rank(q.query, found.values.toSeq))
  }
}
