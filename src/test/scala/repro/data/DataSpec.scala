package repro.data

import repro.{SparkSpec, SynthData}
import repro.nrab.NestedSchemas
import repro.scenarios.TwitterScenarios

/** Sanity checks for the synthetic data generators (DESIGN.md §4):
  * determinism, planted witnesses, nested-structure registration.
  */
class DataSpec extends SparkSpec {

  test("NestedTpch is deterministic in (nOrders, seed)") {
    val a = NestedTpch(spark, nOrders = 500, seed = 3)
    val b = NestedTpch(spark, nOrders = 500, seed = 3)
    assert(a.lineitem.collect().toSeq == b.lineitem.collect().toSeq)
    assert(a.orders.count() == b.orders.count())
  }

  test("NestedTpch plants the Q3 order with the commitdate window") {
    val d = NestedTpch(spark, nOrders = 500)
    val li = d.lineitem.filter(s"l_orderkey = ${NestedTpch.Q3OrderKey}").collect()
    assert(li.nonEmpty)
    assert(li.forall { r =>
      val c = r.getAs[String]("l_commitdate")
      c > "1995-03-15" && c <= "1995-03-25"
    })
  }

  test("NestedTpch plants customer 61402 with returnflag R lineitems only") {
    val d = NestedTpch(spark, nOrders = 500)
    val keys = d.orders.filter(s"o_custkey = ${NestedTpch.Q10CustKey}")
      .select("o_orderkey").collect().map(_.getLong(0))
    assert(keys.length == 3)
    val flags = d.lineitem.filter(s"l_orderkey in (${keys.mkString(",")})")
      .select("l_returnflag").collect().map(_.getString(0)).toSet
    assert(flags == Set("R"))
  }

  test("every order has at least one lineitem (real-TPC-H invariant)") {
    val d = NestedTpch(spark, nOrders = 500)
    import org.apache.spark.sql.functions.size
    assert(d.nestedOrders.filter(size(org.apache.spark.sql.functions.col("o_lineitems")) === 0)
      .count() == 0)
  }

  test("customerNested keeps order-less customers with empty arrays") {
    val d = NestedTpch(spark, nOrders = 500)
    import org.apache.spark.sql.functions.{col, size}
    assert(d.customerNested.filter(size(col("c_orders")) === 0).count() > 0)
  }

  test("Dblp plants Alice Smith with 6 all-null-bibtex articles") {
    val t = Dblp.tables(spark)
    val alice = t("records").filter("author = 'Alice Smith'").collect()
    assert(alice.length == 6)
    assert(alice.forall(_.getStruct(alice.head.fieldIndex("title")).isNullAt(1)))
  }

  test("Dblp bibtex is null for the vast majority of records (>99% in the paper)") {
    val t = Dblp.tables(spark, nRecords = 1200)
    val total = t("records").count().toDouble
    val withBibtex = t("records").filter("title.bibtex is not null").count().toDouble
    assert(withBibtex / total < 0.02)
  }

  test("Twitter plants the T_ASD retweets and never quotes status 777") {
    val t = Twitter.tables(spark)
    assert(t("tweets").filter(s"retweeted_status.sid = ${Twitter.AsdStatusId}").count() == 2)
    assert(t("tweets").filter(s"quoted_status.sid = ${Twitter.AsdStatusId}").count() == 0)
  }

  test("Twitter tweet ids stay unique when generated tweets reach the planted ids") {
    val tweets = Twitter.tables(spark, nTweets = 2000)("tweets")
    assert(tweets.select("tid").distinct().count() == tweets.count())
    assert(tweets.filter(s"tid = ${Twitter.T1TweetId}").count() == 1)
  }

  test("T1 expectations hold at 2 000 tweets on seeds 1-5") {
    (1 to 5).foreach { seed =>
      val t = Twitter.tables(spark, nTweets = 2000, seed = seed)
      val s = TwitterScenarios.t1(t)
      val r = s.runAll()
      assert(r.wn == s.expectedWn, s"seed $seed WN++: ${r.wn}")
      assert(r.rpNoSa == s.expectedRpNoSa, s"seed $seed RPnoSA: ${r.rpNoSa}")
      assert(r.rp == s.expectedRp, s"seed $seed RP: ${r.rp}")
      t.values.foreach(_.unpersist())
    }
  }

  test("Crime keeps Roger's and Conedera's looks unique to the planted sightings") {
    val t = Crime.tables(spark)
    // roger-look + Ashishbakshi's second sighting (both reported by zack)
    assert(t("sightings").filter("s_hair = 'brown' and s_clothes = 'jacket'").count() == 2)
    assert(t("sightings").filter("s_hair = 'red' and s_clothes = 'coat'").count() == 2)
    assert(t("sightings").filter("s_hair = 'brown' and s_clothes = 'jacket'")
      .filter("s_witness <> 'zack'").count() == 0)
  }

  test("nested structure registration covers the scenario attributes") {
    NestedTpch(spark, nOrders = 100)
    Twitter.tables(spark, nTweets = 10)
    assert(NestedSchemas.kindOf("nestedOrders", "o_lineitems") == "rel")
    assert(NestedSchemas.kindOf("tweets", "user") == "tup")
    assert(NestedSchemas.kindOf("tweets", "media") == "rel")
  }

  test("provided SynthData generators stay deterministic (oracle requirement)") {
    val a = SynthData.lineitem(spark, sf = 0.001)
    val b = SynthData.lineitem(spark, sf = 0.001)
    assert(a.count() == b.count())
    assert(a.exceptAll(b).count() == 0)
  }

  test("zipf keys are skewed, uniform keys are not") {
    val z = SynthData.zipfKeys(spark, rows = 20000, nKeys = 1000)
    val u = SynthData.uniformKeys(spark, rows = 20000, nKeys = 1000)
    val zTop = z.groupBy("k").count().orderBy(org.apache.spark.sql.functions.desc("count"))
      .head().getLong(1)
    val uTop = u.groupBy("k").count().orderBy(org.apache.spark.sql.functions.desc("count"))
      .head().getLong(1)
    assert(zTop > uTop * 3, s"zipf top=$zTop uniform top=$uTop")
  }
}
