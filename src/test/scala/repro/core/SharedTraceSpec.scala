package repro.core

import repro.SparkSpec
import repro.scenarios.{Scenario, Tables}

/** Tracing a question's schema alternatives in one shared plan
  * (``Trace.traceAll``) must give every SA exactly the witness fail-sets
  * of tracing it alone, at any shuffle partition count, and must share
  * the plan wherever the SAs keep the same rows.
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

  private lazy val byPartitions: Map[Int, Map[String, Seq[(FailSets, FailSets)]]] =
    Seq(1, 64).map(n => n -> withPartitions(n)(all.map(s => s.name -> bothPaths(s)).toMap)).toMap

  for (n <- Seq(1, 64)) {
    test(s"every scenario: shared fail-sets equal per-SA tracing ($n shuffle partitions)") {
      val diffs = for {
        s <- all
        ((together, alone), i) <- byPartitions(n)(s.name).zipWithIndex
        if sorted(together) != sorted(alone)
      } yield s"${s.name} SA $i: shared ${sorted(together)} vs alone ${sorted(alone)}"
      assert(diffs.isEmpty, diffs.mkString("\n"))
      assert(byPartitions(n).values.exists(_.size > 1))
    }
  }

  test("fail-sets do not depend on the shuffle partition count") {
    all.foreach { s =>
      assert(byPartitions(1)(s.name).map(p => sorted(p._1)) == byPartitions(64)(s.name).map(p => sorted(p._1)),
        s.name)
    }
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
