package repro.core

import repro.{SparkCounts, SparkSpec}
import repro.scenarios.{Scenario, ScenarioResult, Tables}

/** Tracing a question's schema alternatives in one shared plan
  * (``Trace.traceAll``) must give every SA exactly the witness fail-sets
  * of tracing it alone, at any shuffle partition count, and must share
  * the plan wherever the SAs keep the same rows. ``runAll`` answers WN++,
  * RPnoSA and RP from that one trace, with one Spark action per shared
  * plan, exactly as the three approaches answer when run separately.
  */
class SharedTraceSpec extends SparkSpec {

  private lazy val all = Tables.scenarios(spark)

  private type FailSets = Seq[(Set[Int], Long)]

  private def sorted(fs: FailSets): Seq[(Seq[Int], Long)] =
    fs.map { case (s, n) => (s.toSeq.sorted, n) }.sortBy(_.toString)

  private def placed(s: Scenario): Seq[(SchemaAlternative, Placement)] = {
    val q = s.question
    SchemaAlts.enumerate(q.query, q.altGroups, q.tableSchemas)
      .map(sa => sa -> Placement.backtrace(sa.query, q.nip, q.tableSchemas))
  }

  private def shared(s: Scenario): Seq[SharedTrace] =
    Trace.traceAll(placed(s).map { case (sa, p) => sa.query -> p }, s.question.tables, s.question.tableSchemas)

  /** Per SA: (shared fail-sets, fail-sets of the SA traced alone). */
  private def bothPaths(s: Scenario): Seq[(FailSets, FailSets)] = {
    val q = s.question
    val together = shared(s).flatMap(Explain.witnessFailSets(_)).toMap
    placed(s).zipWithIndex.map { case ((sa, p), i) =>
      val alone = Explain.witnessFailSets(Trace.trace(sa.query, q.tables, p, q.tableSchemas))
      (together.getOrElse(i, Seq.empty), alone)
    }
  }

  private def withPartitions[A](n: Int)(body: => A): A = {
    val key = "spark.sql.shuffle.partitions"
    val before = spark.conf.get(key)
    spark.conf.set(key, n.toString)
    try body finally spark.conf.set(key, before)
  }

  /** One scenario at one shuffle partition count. */
  private final class Run(val paths: Seq[(FailSets, FailSets)], val together: ScenarioResult,
                          val actions: Int, val separate: ScenarioResult,
                          val whyNot: Option[Set[String]], val conseil: Option[Set[String]])

  private def run(s: Scenario): Run = {
    val (together, actions) = SparkCounts.actions(spark)(s.runAll())
    val separate = ScenarioResult(s.name, s.runWn(), s.runRpNoSa().map(_.labels), s.runRp().map(_.labels))
    new Run(bothPaths(s), together, actions, separate,
      s.expectedWhyNot.flatMap(_ => s.runWhyNot()), s.expectedConseil.flatMap(_ => s.runConseil()))
  }

  private lazy val byPartitions: Map[Int, Map[String, Run]] =
    Seq(1, 64).map(n => n -> withPartitions(n)(all.map(s => s.name -> run(s)).toMap)).toMap

  for (n <- Seq(1, 64)) {
    test(s"every scenario: shared fail-sets equal per-SA tracing ($n shuffle partitions)") {
      val diffs = for {
        s <- all
        ((together, alone), i) <- byPartitions(n)(s.name).paths.zipWithIndex
        if sorted(together) != sorted(alone)
      } yield s"${s.name} SA $i: shared ${sorted(together)} vs alone ${sorted(alone)}"
      assert(diffs.isEmpty, diffs.mkString("\n"))
      assert(byPartitions(n).values.exists(_.paths.size > 1))
    }

    test(s"every scenario: runAll equals WN++, RPnoSA and RP run separately ($n shuffle partitions)") {
      val diffs = all.map(s => byPartitions(n)(s.name)).collect {
        case r if r.together != r.separate => s"runAll ${r.together.render}\nalone  ${r.separate.render}"
      }
      assert(diffs.isEmpty, diffs.mkString("\n"))
    }

    test(s"crime scenarios: Why-Not and Conseil keep their answers ($n shuffle partitions)") {
      val crime = all.filter(_.expectedWhyNot.nonEmpty)
      assert(crime.map(_.name) == Seq("C1", "C2", "C3"))
      crime.foreach { s =>
        val r = byPartitions(n)(s.name)
        assert(r.whyNot == s.expectedWhyNot, s.name)
        assert(r.conseil == s.expectedConseil, s.name)
      }
    }
  }

  test("fail-sets do not depend on the shuffle partition count") {
    all.foreach { s =>
      def at(n: Int) = byPartitions(n)(s.name).paths.map(p => sorted(p._1))
      assert(at(1) == at(64), s.name)
    }
  }

  test("explanations do not depend on the shuffle partition count") {
    all.foreach(s => assert(byPartitions(1)(s.name).together == byPartitions(64)(s.name).together, s.name))
  }

  test("runAll runs one Spark action per shared plan: no separate WN++ or RPnoSA job") {
    val counts = all.map(s => s.name -> byPartitions(64)(s.name).actions).toMap
    all.foreach(s => assert(counts(s.name) == shared(s).size, s"${s.name}: ${counts(s.name)} actions"))
    Seq("Q4F", "D3", "D4", "T_ASD", "C3").foreach(name => assert(counts(name) == 1, name))
    assert(counts("T3") == 2)
    assert(byPartitions(1).map { case (name, r) => name -> r.actions } == counts)
  }

  test("SAs keeping the same rows share one plan; T3 splits at its relation flatten F^I17") {
    val plans = all.map(s => s.name -> shared(s)).toMap
    val sas = all.map(s => s.name -> placed(s).size).toMap
    assert(sas("Q4F") == 12)
    Seq("Q4F", "D3", "D4", "T_ASD", "C3").foreach { name =>
      assert(plans(name).size == 1, s"$name: ${plans(name).size} plans for ${sas(name)} SAs")
      assert(plans(name).head.lanes.size == sas(name), name)
    }
    assert(sas("T3") == 2)
    assert(plans("T3").size == 2)
    assert(plans("T3").map(_.lanes.map(_._1)) == Seq(Seq(0), Seq(1)))
  }
}
